package exp

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"calib/internal/ise"
)

func TestTableFormatting(t *testing.T) {
	tab := NewTable("demo", "a", "bb", "ccc")
	tab.Add(1, 2.5, "x")
	tab.Add("long-cell", 0.0, "y")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "## demo") || !strings.Contains(out, "long-cell") {
		t.Errorf("unexpected table output:\n%s", out)
	}
	var csv bytes.Buffer
	tab.CSV(&csv)
	if !strings.Contains(csv.String(), "a,bb,ccc") {
		t.Errorf("unexpected CSV output:\n%s", csv.String())
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := NewTable("q", "col")
	tab.Add(`has "quote", and comma`)
	var csv bytes.Buffer
	tab.CSV(&csv)
	want := `"has ""quote"", and comma"`
	if !strings.Contains(csv.String(), want) {
		t.Errorf("CSV = %q, want to contain %q", csv.String(), want)
	}
}

func TestGanttRendering(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 20, 5)
	s := ise.NewSchedule(1)
	s.Calibrate(0, 0)
	s.Place(0, 0, 2)
	g := Gantt(in, s)
	if !strings.Contains(g, "=") || !strings.Contains(g, "0") {
		t.Errorf("gantt missing calibration or job marks:\n%s", g)
	}
	w := Windows(in)
	if !strings.Contains(w, "job 0") {
		t.Errorf("windows missing job line:\n%s", w)
	}
	if got := Windows(ise.NewInstance(10, 1)); !strings.Contains(got, "no jobs") {
		t.Errorf("empty windows = %q", got)
	}
}

func TestFigure1(t *testing.T) {
	out, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(A)", "(B)", "(C)", "3x"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2(t *testing.T) {
	out := Figure2()
	if !strings.Contains(out, "3 full calibrations") {
		t.Errorf("figure 2 should round 1.7 mass into 3 calibrations:\n%s", out)
	}
}

func TestFigure3(t *testing.T) {
	out, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Lemma 5") || !strings.Contains(out, "calibration 0") {
		t.Errorf("figure 3 output incomplete:\n%s", out)
	}
}

// TestExperimentsQuick smoke-runs the whole suite at the smallest
// scale; every internal bound assertion panics on violation, so a
// clean pass is a real property check.
func TestExperimentsQuick(t *testing.T) {
	cfg := Config{Trials: 2, Quick: true}
	tables := AllParallel(cfg, 1)
	if len(tables) != 14 {
		t.Fatalf("expected 14 tables, got %d", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("table %q has no rows", tab.Title)
		}
		var buf bytes.Buffer
		tab.Fprint(&buf)
		if buf.Len() == 0 {
			t.Errorf("table %q rendered empty", tab.Title)
		}
	}
}

// TestT10MatchesResults pins the quick T10 table to the committed one:
// its two rows (LP 2 / ILP 2 and LP 1.5 / ILP 2) are the first rows of
// docs/RESULTS.txt's T10 table, cell for cell.
func TestT10MatchesResults(t *testing.T) {
	tab := T10IntegralityGap(Config{Quick: true})
	raw, err := os.ReadFile("../../docs/RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "## "+tab.Title+"\n")
	if !ok {
		t.Fatalf("docs/RESULTS.txt has no table %q", tab.Title)
	}
	var want [][]string
	for _, line := range strings.Split(section, "\n")[2:] { // past header and rule
		if line == "" {
			break
		}
		want = append(want, strings.Fields(line))
	}
	if len(tab.Rows) != 2 || len(want) < 2 {
		t.Fatalf("quick T10 has %d rows, docs/RESULTS.txt %d; want 2 and at least 2", len(tab.Rows), len(want))
	}
	for i, row := range tab.Rows {
		if !slices.Equal(row, want[i]) {
			t.Errorf("T10 row %d = %v, docs/RESULTS.txt has %v", i, row, want[i])
		}
	}
}

// TestAllParallelMatchesSequential: parallel execution must produce
// byte-identical tables.
func TestAllParallelMatchesSequential(t *testing.T) {
	cfg := Config{Trials: 1, Quick: true}
	seq := AllParallel(cfg, 1)
	par := AllParallel(cfg, 4)
	if len(seq) != len(par) {
		t.Fatalf("table counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if i == 5 || i == 7 {
			continue // T6 and T8 report wall-clock times
		}
		var a, b bytes.Buffer
		seq[i].Fprint(&a)
		par[i].Fprint(&b)
		if a.String() != b.String() {
			t.Errorf("table %d differs between sequential and parallel runs", i)
		}
	}
}

func TestJobGlyph(t *testing.T) {
	if jobGlyph(3) != '3' || jobGlyph(10) != 'a' || jobGlyph(35) != 'z' || jobGlyph(99) != '#' {
		t.Error("glyph mapping broken")
	}
}

package fleet

import (
	"strings"
	"testing"
)

// checkAccepted pins what every roster the parsers accept must satisfy:
// non-empty, already clean (CleanMembers leaves it unchanged, so it
// passes validation), no URL ending in "/", and one ring node per
// member.
func checkAccepted(t *testing.T, members []Member) {
	t.Helper()
	if len(members) == 0 {
		t.Fatal("accepted an empty roster")
	}
	cleaned, err := CleanMembers(members)
	if err != nil {
		t.Fatalf("accepted roster fails validation: %v", err)
	}
	names := make([]string, len(members))
	for i, m := range members {
		if cleaned[i] != m {
			t.Fatalf("accepted member %+v is not clean (%+v)", m, cleaned[i])
		}
		if strings.HasSuffix(m.URL, "/") {
			t.Fatalf("accepted url %q ends in /", m.URL)
		}
		names[i] = m.Name
	}
	if got := NewRing(names, 1).Len(); got != len(members) {
		t.Fatalf("ring over %d accepted members has %d nodes", len(members), got)
	}
}

func FuzzParseRoster(f *testing.F) {
	for _, seed := range []string{
		`{"nodes": [{"name": "a", "url": "http://h1:1"}]}`,
		`{"nodes": [{"name": "a", "url": "http://h1:1/"}, {"name": "b", "url": "http://h2:2//"}]}`,
		`{"nodes": [{"name": "a", "url": "/"}]}`,
		`{"nodes": [{"name": "a", "url": "http://x"}, {"name": "a", "url": "http://y"}]}`,
		`{"nodes": [{"name": "", "url": "http://x"}]}`,
		`{"nodes": []}`,
		`{"nodes": null}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if members, err := ParseRoster(raw); err == nil {
			checkAccepted(t, members)
		}
	})
}

func FuzzParseStatic(f *testing.F) {
	for _, seed := range []string{
		"a=http://h1:1, http://h2:2/ ,b=http://h3:3",
		"http://h1:1/",
		"a=/",
		"a=http://x,a=http://y",
		"=http://x",
		"http://",
		" , ",
		"a=b=c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if members, err := ParseStatic(spec); err == nil {
			checkAccepted(t, members)
		}
	})
}

package fleet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"time"
)

// Roster is the declarative membership file of a fleet (cmd/isedfleet
// -roster): reproducible infrastructure in the Scheduling.jl spirit —
// the topology is a versionable artifact, not accumulated mutation.
//
//	{"nodes": [
//	  {"name": "a", "url": "http://10.0.0.1:8080"},
//	  {"name": "b", "url": "http://10.0.0.2:8080"}
//	]}
//
// Writers must replace the file atomically (temp + rename, as
// internal/atomicfile does and ised's -addr-file now guarantees); the
// watcher re-reads on any mtime/size change and rejects — keeping the
// old roster — anything that fails validation.
type Roster struct {
	Nodes []Member `json:"nodes"`
}

// ParseRoster decodes and validates a roster document.
func ParseRoster(raw []byte) ([]Member, error) {
	var r Roster
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parsing roster: %w", err)
	}
	if len(r.Nodes) == 0 {
		return nil, fmt.Errorf("roster has no nodes")
	}
	return CleanMembers(r.Nodes)
}

// LoadRoster reads and parses a roster file.
func LoadRoster(path string) ([]Member, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseRoster(raw)
}

// ParseStatic parses the -backends flag form: a comma-separated list
// of "name=url" or bare "url" entries (a bare URL is named by its
// host:port part, which stays stable across schemes).
func ParseStatic(spec string) ([]Member, error) {
	var out []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, url, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			out = append(out, Member{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url)})
		} else {
			out = append(out, Member{Name: hostPort(part), URL: part})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no backends in %q", spec)
	}
	return CleanMembers(out)
}

// hostPort strips the scheme and any path from a URL, leaving the
// stable node identity a bare -backends entry implies.
func hostPort(url string) string {
	if _, rest, ok := strings.Cut(url, "://"); ok {
		url = rest
	}
	if host, _, ok := strings.Cut(url, "/"); ok {
		url = host
	}
	return url
}

// WatchRoster polls path every interval and applies changed, valid
// rosters to f until stop is closed. Each tick reads the file and
// compares a content hash of the bytes: an earlier mtime+size stat
// comparison missed same-size rewrites landing within the filesystem's
// mtime granularity (exactly what a fast test — or a fast operator
// script — produces), and rosters are small enough that a read per
// tick costs about what the stat did. A roster that disappears or
// stops parsing is logged and skipped — the fleet keeps serving on the
// last good membership, because an operator fat-fingering a JSON edit
// must never take the router down. Returns when stop closes.
func (f *Fleet) WatchRoster(path string, interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = time.Second
	}
	// No baseline hash, so the first tick always reconciles: an edit
	// landing between the caller's LoadRoster and this goroutine's
	// first read would otherwise be missed forever. One redundant
	// identity rebuild at startup is the cheap price.
	var lastHash uint64
	hashed := false
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // transient (mid-rename): keep the current roster
		}
		h := fnv.New64a()
		h.Write(raw)
		sum := h.Sum64()
		if hashed && sum == lastHash {
			continue
		}
		// Remember the hash before validating, so a bad roster is
		// logged once, not every tick until it is fixed.
		lastHash, hashed = sum, true
		members, err := ParseRoster(raw)
		if err != nil {
			f.cfg.Logf("fleet: roster %s rejected (keeping %d current nodes): %v",
				path, len(f.view.Load().nodes), err)
			continue
		}
		if err := f.SetMembers(members); err != nil {
			f.cfg.Logf("fleet: roster %s rejected: %v", path, err)
		}
	}
}

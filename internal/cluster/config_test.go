package cluster

import (
	"strings"
	"testing"
	"time"
)

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig("http://b:8080", "http://a:8080,http://b:8080", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Self != "http://b:8080" {
		t.Errorf("Self = %q", cfg.Self)
	}
	if len(cfg.Peers) != 2 {
		t.Errorf("Peers = %v", cfg.Peers)
	}
	// Defaults applied by the embedded Validate.
	if cfg.VNodes != 64 || cfg.ProbeInterval != time.Second || cfg.ProbeTimeout != 500*time.Millisecond {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.SuspectAfter != 2 || cfg.DownAfter != 4 {
		t.Errorf("failure thresholds: suspect=%d down=%d", cfg.SuspectAfter, cfg.DownAfter)
	}
}

// TestParseConfigNormalizes: spelling variants of the same replica compare
// equal, so -self can be uppercased or carry a trailing slash and still
// match its -peers entry.
func TestParseConfigNormalizes(t *testing.T) {
	cfg, err := ParseConfig("HTTP://B:8080/", "http://a:8080,http://b:8080", 64)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Self != "http://b:8080" {
		t.Errorf("Self = %q, want normalized", cfg.Self)
	}
}

// TestParseConfigErrors checks each operator mistake produces a message
// naming the actual problem — these strings are the daemon's startup
// diagnostics.
func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name, self, peers string
		wantSub           string
	}{
		{"empty peers", "http://a:1", "", "-peers is empty"},
		{"missing self", "", "http://a:1,http://b:1", "without -self"},
		{"self not a URL", "://x", "http://a:1", "-self"},
		{"self missing scheme", "a:8080", "http://a:8080", "scheme"},
		{"peer bad scheme", "http://a:1", "http://a:1,ftp://b:1", `unsupported scheme "ftp"`},
		{"peer with path", "http://a:1", "http://a:1,http://b:1/api", "base URL"},
		{"stray comma", "http://a:1", "http://a:1,,http://b:1", "empty entry"},
		{"duplicate peer", "http://a:1", "http://a:1,http://b:1,HTTP://B:1/", "twice"},
		{"self not in peers", "http://c:1", "http://a:1,http://b:1", "not in -peers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig(tc.self, tc.peers, 64)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestConfigValidateRejects(t *testing.T) {
	base := func() Config {
		return Config{Self: "http://a:1", Peers: []string{"http://a:1"}}
	}
	c := base()
	c.SuspectAfter, c.DownAfter = 5, 2
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("suspect>down: err = %v", err)
	}
	c = base()
	c.VNodes = -1
	if err := c.Validate(); err == nil {
		t.Error("negative vnodes: want error")
	}
	c = base()
	c.ProbeInterval = -time.Second
	if err := c.Validate(); err == nil {
		t.Error("negative probe interval: want error")
	}
}

// TestNames pins the name assignment job-ID prefixes depend on: sorted
// peer order, "n0" upward.
func TestNames(t *testing.T) {
	m := names([]string{"http://a:1", "http://b:1", "http://c:1"})
	want := map[string]string{"http://a:1": "n0", "http://b:1": "n1", "http://c:1": "n2"}
	for url, n := range want {
		if m[url] != n {
			t.Errorf("names[%s] = %s, want %s", url, m[url], n)
		}
	}
}

// FuzzParseConfig: ParseConfig never panics on any -self/-peers/-vnodes
// triple, and every config it accepts names a fleet the replicas can agree
// on — Self among the Peers, no peer twice, and every peer already in the
// normal form that a second normalization leaves unchanged.
func FuzzParseConfig(f *testing.F) {
	f.Add("http://b:8080", "http://a:8080,http://b:8080", 0)
	f.Add("HTTP://B:8080/", "http://a:8080,http://b:8080", 64)
	f.Add("http://a:1", "http://a:1,http://b:1,HTTP://B:1/", 64)
	f.Add("http://a:1", "http://a:1,,http://b:1", 64)
	f.Add("https://[::1]:9000", "https://[::1]:9000", -1)
	f.Add("://x", "http://a:1/api?x#y", 1)
	f.Fuzz(func(t *testing.T, self, peers string, vnodes int) {
		cfg, err := ParseConfig(self, peers, vnodes)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, p := range cfg.Peers {
			if seen[p] {
				t.Fatalf("ParseConfig(%q, %q) lists peer %q twice: %v", self, peers, p, cfg.Peers)
			}
			seen[p] = true
			if norm, err := normalizePeerURL(p); err != nil || norm != p {
				t.Fatalf("ParseConfig(%q, %q): peer %q re-normalizes to %q (%v)", self, peers, p, norm, err)
			}
		}
		if !seen[cfg.Self] {
			t.Fatalf("ParseConfig(%q, %q): self %q is not among peers %v", self, peers, cfg.Self, cfg.Peers)
		}
	})
}

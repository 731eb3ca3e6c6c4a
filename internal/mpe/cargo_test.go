package mpe

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clog2"
)

// legacyCargo is the Sprintf-then-truncate path every Pilot call site
// used before the builders: format, then cut at the 40-byte limit.
func legacyCargo(format string, args ...any) string {
	s := fmt.Sprintf(format, args...)
	if len(s) > clog2.MaxCargo {
		s = s[:clog2.MaxCargo]
	}
	return s
}

// Golden-cargo: for every call-site shape in internal/core, the builder
// chain must produce byte-identical cargo to the old Sprintf format.
// (ASCII inputs only: at the exact 40-byte boundary the builders drop a
// straddling rune whole where the old path cut bytes — that deliberate
// divergence is covered by clog2's rune-safety test.)
func TestCargoBuildersMatchSprintf(t *testing.T) {
	long := strings.Repeat("x", 50) // forces truncation through both paths
	cases := []struct {
		name  string
		want  string
		build func(c *Cargo) []byte
	}{
		{"PI_Write/PI_Read state",
			legacyCargo("line: %s proc: %s idx: %d", "main.go:10", "PI_MAIN", 3),
			func(c *Cargo) []byte {
				return c.KV("line", "main.go:10").KV("proc", "PI_MAIN").Str(" idx: ").Int(3).Bytes()
			}},
		{"PI_Write state truncated",
			legacyCargo("line: %s proc: %s idx: %d", "averylongfilename_test.go:12345", long, 42),
			func(c *Cargo) []byte {
				return c.KV("line", "averylongfilename_test.go:12345").KV("proc", long).Str(" idx: ").Int(42).Bytes()
			}},
		{"MsgDeparture",
			legacyCargo("chan: %s %s", "C2", "val: 42"),
			func(c *Cargo) []byte {
				return c.KV("chan", "C2").Str(" ").Raw([]byte("val: 42")).Bytes()
			}},
		{"MsgArrival read",
			legacyCargo("chan: %s msg: %d/%d", "C2", 1, 2),
			func(c *Cargo) []byte {
				return c.KV("chan", "C2").Str(" msg: ").Int(1).Str("/").Int(2).Bytes()
			}},
		{"MsgArrival collective part",
			legacyCargo("chan: %s part: %d/%d", "gatherer", 3, 16),
			func(c *Cargo) []byte {
				return c.KV("chan", "gatherer").Str(" part: ").Int(3).Str("/").Int(16).Bytes()
			}},
		{"PI_ChannelHasData",
			legacyCargo("chan: %s has: %v line: %s", "C9", true, "poll.go:7"),
			func(c *Cargo) []byte {
				return c.KV("chan", "C9").Str(" has: ").Bool(true).KV("line", "poll.go:7").Bytes()
			}},
		{"PI_ChannelHasData false",
			legacyCargo("chan: %s has: %v line: %s", "C9", false, "poll.go:8"),
			func(c *Cargo) []byte {
				return c.KV("chan", "C9").Str(" has: ").Bool(false).KV("line", "poll.go:8").Bytes()
			}},
		{"PI_Log",
			legacyCargo("line: %s %s", "app.go:33", "checkpoint reached"),
			func(c *Cargo) []byte {
				return c.KV("line", "app.go:33").Str(" ").Str("checkpoint reached").Bytes()
			}},
		{"PI_StartTime",
			legacyCargo("t: %.6f line: %s", 12.3456789, "app.go:40"),
			func(c *Cargo) []byte {
				return c.Str("t: ").Float(12.3456789, 6).KV("line", "app.go:40").Bytes()
			}},
		{"PI_EndTime negative clock",
			legacyCargo("t: %.6f line: %s", -0.25, "app.go:41"),
			func(c *Cargo) []byte {
				return c.Str("t: ").Float(-0.25, 6).KV("line", "app.go:41").Bytes()
			}},
		{"collective state",
			legacyCargo("line: %s proc: %s bund: %s", "bcast.go:5", "P4", "B2"),
			func(c *Cargo) []byte {
				return c.KV("line", "bcast.go:5").KV("proc", "P4").KV("bund", "B2").Bytes()
			}},
		{"PI_Select end",
			legacyCargo("ready: %d", 7),
			func(c *Cargo) []byte { return c.Str("ready: ").Int(7).Bytes() }},
		{"PI_TrySelect",
			legacyCargo("bund: %s ready: %d line: %s", "B1", -1, "sel.go:3"),
			func(c *Cargo) []byte {
				return c.KV("bund", "B1").Str(" ready: ").Int(-1).KV("line", "sel.go:3").Bytes()
			}},
		{"Compute start",
			legacyCargo("proc: %s idx: %d", "P2", 1),
			func(c *Cargo) []byte { return c.KV("proc", "P2").Str(" idx: ").Int(1).Bytes() }},
		{"Compute end",
			legacyCargo("status: %d", 0),
			func(c *Cargo) []byte { return c.Str("status: ").Int(0).Bytes() }},
	}
	for _, tc := range cases {
		var c Cargo
		if got := string(tc.build(&c)); got != tc.want {
			t.Errorf("%s: builder = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// The free-function builders respect the cargo bound no matter how much
// is appended, and reuse of a Cargo via Reset starts clean.
func TestCargoBuilderBounds(t *testing.T) {
	var c Cargo
	for i := 0; i < 20; i++ {
		c.KV("key", "value").Int(1234567890)
	}
	if n := len(c.Bytes()); n != clog2.MaxCargo {
		t.Fatalf("overfull cargo length %d, want %d", n, clog2.MaxCargo)
	}
	if got := string(c.Reset().Str("fresh").Bytes()); got != "fresh" {
		t.Fatalf("after Reset: %q", got)
	}
	dst := AppendFloat(nil, 3.25, 2)
	if string(dst) != "3.25" {
		t.Fatalf("AppendFloat = %q", dst)
	}
	if got := string(AppendKV(nil, "line", "a.go:1")); got != "line: a.go:1" {
		t.Fatalf("AppendKV on empty = %q", got)
	}
	if got := string(AppendKV([]byte("x"), "line", "a.go:1")); got != "x line: a.go:1" {
		t.Fatalf("AppendKV on non-empty = %q", got)
	}
}

// Reset empties the buffer for reuse.
func (c *Cargo) Reset() *Cargo { c.n = 0; return c }

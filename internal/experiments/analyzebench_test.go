package experiments

import "testing"

// The harness itself refuses a self-diff that allocates past the flat
// ceiling; at 8 MB the string diff this replaced allocated ~160 MB.
func TestAnalyzeBenchHoldsDiffAllocCeiling(t *testing.T) {
	rows, err := RunAnalyzeBench(Options{OutDir: t.TempDir()}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == "diff_self" {
			if r.AllocMB <= 0 || r.AllocMB > DiffAllocCeilingMB {
				t.Errorf("diff_self allocated %.2f MB, want within (0, %d]", r.AllocMB, DiffAllocCeilingMB)
			}
			return
		}
	}
	t.Fatal("no diff_self row")
}

package bench

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// TestRegistryComplete ensures every paper artifact has an experiment.
func TestRegistryComplete(t *testing.T) {
	want := []string{"fig10a", "fig10b", "fig11", "fig12", "fig13a", "fig13b",
		"fig13c", "fig13d", "fig14", "fig15", "fig16", "fig17"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s want %s", i, reg[i].ID, id)
		}
		if reg[i].Paper == "" {
			t.Errorf("%s missing paper reference", id)
		}
	}
	if _, ok := Find("fig14"); !ok {
		t.Error("Find fig14")
	}
	if _, ok := Find("zzz"); ok {
		t.Error("Find should miss zzz")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo",
		Headers: []string{"a", "bbbb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n1"},
	}
	out := tbl.Render()
	for _, want := range []string{"demo", "bbbb", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if ms(1500*time.Microsecond) != "1.5" {
		t.Error("ms")
	}
	if secs(1500*time.Millisecond) != "1.500" {
		t.Error("secs")
	}
	if ratio(2*time.Second, time.Second) != "2.00" {
		t.Error("ratio")
	}
	if ratio(time.Second, 0) != "n/a" {
		t.Error("ratio zero base")
	}
}

// TestAllExperimentsQuick smoke-runs every experiment at tiny sizes: each
// must succeed and produce a plausible table. This doubles as the
// integration test of the whole pipeline (generators -> translations ->
// engines -> baselines -> metrics). Set AUDB_BENCH_FULL=1 to run the
// quick (audbench-default) sizes instead of the tiny smoke sizes.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := Config{Quick: true, Tiny: true, Seed: 1}
	if os.Getenv("AUDB_BENCH_FULL") != "" {
		cfg.Tiny = false
	}
	if testing.Short() && !cfg.Tiny {
		t.Skip("full-size experiments are slow; skipped in -short mode")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if len(tbl.Headers) == 0 || tbl.ID != e.ID {
				t.Fatalf("%s malformed table", e.ID)
			}
			for _, r := range tbl.Rows {
				if len(r) != len(tbl.Headers) {
					t.Fatalf("%s row width %d != header width %d: %v",
						e.ID, len(r), len(tbl.Headers), r)
				}
			}
			t.Logf("\n%s", tbl.Render())
		})
	}
}

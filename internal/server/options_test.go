package server

import (
	"runtime"
	"testing"
)

// TestClampWorkers: a wire worker count above the server's GOMAXPROCS is
// cut to it; defaults (zero, negative) and in-range counts pass through.
func TestClampWorkers(t *testing.T) {
	limit := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name string
		in   int
		want int
	}{
		{"zero means per CPU", 0, 0},
		{"negative means per CPU", -3, -3},
		{"serial", 1, 1},
		{"at limit", limit, limit},
		{"one over limit", limit + 1, limit},
		{"hostile", 1 << 30, limit},
	} {
		if got := clampWorkers(tc.in); got != tc.want {
			t.Errorf("%s: clampWorkers(%d) = %d, want %d", tc.name, tc.in, got, tc.want)
		}
	}
}

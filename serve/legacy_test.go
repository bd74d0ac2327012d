package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"setupsched/schedgen"
)

// TestSolveIgnoresParallelismField: requests from clients that still send
// the retired "parallelism" field, any value, negative included, solve
// exactly like requests without it.  /v1/stats keeps reporting the
// runtime posture.
func TestSolveIgnoresParallelismField(t *testing.T) {
	ts := httptest.NewServer(New(Config{CacheSize: -1}))
	defer ts.Close()
	// Setup-heavy enough that the searches genuinely probe.
	in := schedgen.ExpensiveSetups(schedgen.Params{
		M: 32, Classes: 40, JobsPer: 3, MaxSetup: 500, MaxJob: 60, Seed: 11,
	})

	_, plain := postJSON(t, ts, "/v1/solve", &SolveRequest{Instance: in, Variant: "nonp"})
	if plain.Error != "" {
		t.Fatalf("plain solve: %s", plain.Error)
	}
	for _, par := range []int{4, -2} {
		body := map[string]any{"instance": in, "variant": "nonp", "parallelism": par}
		resp, got := postJSON(t, ts, "/v1/solve", body)
		if resp.StatusCode != http.StatusOK || got.Error != "" {
			t.Fatalf("parallelism %d: status %d, error %q", par, resp.StatusCode, got.Error)
		}
		if got.Makespan != plain.Makespan || got.LowerBound != plain.LowerBound || got.Probes != plain.Probes {
			t.Fatalf("parallelism %d: (%s, %s, %d probes) differs from plain (%s, %s, %d probes)", par,
				got.Makespan, got.LowerBound, got.Probes, plain.Makespan, plain.LowerBound, plain.Probes)
		}
	}

	st := getStats(t, ts)
	if st.Runtime.MaxProcs < 1 || st.Runtime.Goroutines < 1 {
		t.Fatalf("runtime stats not populated: %+v", st.Runtime)
	}
}

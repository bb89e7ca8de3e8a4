package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// Every workload for 300 ms with its oracles on. No timing is asserted:
// this is a test of the generator and the oracles, not of the host.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 2, warm: 50 * time.Millisecond}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := cfg
			if w.name == "rpc_xproc" {
				cfg.odpnode = buildOdpnodeForTest(t)
			}
			res, err := runUntraced(w, cfg, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			for _, name := range []string{"setup_s", "loadgen.ops_per_s", "loadgen.lat_p50_us", "loadgen.lat_p90_us",
				"allocs_per_op", "alloc_bytes_per_op", "loadgen.peak_rss_mb"} {
				if res.Metrics[name] <= 0 {
					t.Errorf("%s = %v", name, res.Metrics[name])
				}
			}
		})
	}
}

// The traced run of the workloads the data-plane test does not cover.
func TestSmokeTraced(t *testing.T) {
	cfg := runConfig{seed: 2, warm: 50 * time.Millisecond}
	expect := map[string][]string{
		"facade_local":  {"odp.bind_us", "relocator.cache_hit_share"},
		"trade_import":  {"trader.frontend_self_us_per_import", "trader.shards_per_import", "typerepo.calls_per_import"},
		"trade_churn":   {"trader.export_us", "trader.withdraw_us"},
		"stream_credit": {"stream.elems_per_frame", "stream.bytes_per_s", "netsim.frames_per_write"},
	}
	for name, metrics := range expect {
		w, _ := findWorkload(name)
		res, err := runTraced(w, cfg, 100*time.Millisecond, 400*time.Millisecond, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
		for _, m := range metrics {
			if res.Metrics[m] <= 0 {
				t.Errorf("%s: %s = %v", name, m, res.Metrics[m])
			}
		}
		if name == "trade_import" && res.Metrics["typerepo.resyncs_per_kop"] != 0 {
			t.Errorf("trade_import resynced the type replicas: %v", res.Metrics["typerepo.resyncs_per_kop"])
		}
	}
}

func buildOdpnodeForTest(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the go tool is not on PATH: cannot build odpnode")
	}
	out := filepath.Join(t.TempDir(), "odpnode")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/odpnode")
	cmd.Dir = ".."
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/odpnode: %v\n%s", err, msg)
	}
	return out
}

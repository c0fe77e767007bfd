package harness

import (
	"reflect"
	"testing"

	"denova"
	"denova/internal/pmem"
	"denova/internal/server"
	"denova/internal/workload"
)

// TestRunProfileOverServerVarmail is the serving layer's end-to-end gate:
// the varmail profile replayed over loopback TCP through the wire codec,
// admission control and op scheduler, with the content oracle verifying
// every read in flight and the full end state after COMMIT. Run under
// -race by the concurrency CI job.
//
// The same engine times each op on the client, so for every op kind that
// maps 1:1 onto a wire op the client histogram must hold exactly as many
// samples as the server's exec histogram, and since each client sample
// contains its server exec interval, client quantiles bound server ones.
// The end state is a function of the trace alone: RunProfile on the same
// profile must leave the identical oracle.
func TestRunProfileOverServerVarmail(t *testing.T) {
	t.Parallel()
	prof := tinyProfile(workload.Varmail(0), 800)
	res, err := RunProfileOverServer(
		FSConfig{Mode: denova.ModeImmediate}, prof,
		ServeProfileOptions{Threads: 3, Profile: pmem.ProfileZero})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 800 {
		t.Errorf("ops = %d, want 800", res.Ops)
	}
	if res.Bytes <= 0 || res.Read <= 0 {
		t.Errorf("bytes written %d / read %d over the wire", res.Bytes, res.Read)
	}
	if len(res.Oracle) == 0 {
		t.Error("no surviving files in oracle")
	}
	// Server-side per-op latencies (p50/p99) must be visible in the shared
	// obs registry for every op the replay exercises.
	for _, op := range []string{"create", "write", "read", "stat", "commit"} {
		h, ok := res.OpLatency["serve.op."+op]
		if !ok || h.Count == 0 {
			t.Errorf("serve.op.%s histogram missing", op)
			continue
		}
		if h.P50Ns <= 0 || h.P99Ns < h.P50Ns {
			t.Errorf("serve.op.%s quantiles not monotone: %+v", op, h)
		}
	}

	for kind, op := range map[string]string{
		"read": "read", "stat": "stat", "create": "create", "delete": "remove", "truncate": "truncate",
	} {
		cl, ok := res.Latency["op."+kind]
		if !ok || cl.Count == 0 {
			t.Errorf("client-side op.%s histogram missing", kind)
			continue
		}
		sv := res.OpLatency["serve.op."+op]
		if cl.Count != sv.Count {
			t.Errorf("op.%s: client count %d, server serve.op.%s count %d", kind, cl.Count, op, sv.Count)
		}
		if cl.P50Ns < sv.P50Ns || cl.P99Ns < sv.P99Ns {
			t.Errorf("op.%s: client p50/p99 %d/%d ns below server %d/%d ns",
				kind, cl.P50Ns, cl.P99Ns, sv.P50Ns, sv.P99Ns)
		}
	}

	local, _, err := RunProfile(FSConfig{Mode: denova.ModeImmediate}, prof,
		ProfileOptions{Threads: 1, Profile: pmem.ProfileZero})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Oracle, local.Oracle) {
		t.Errorf("wire oracle (%d files) differs from in-process oracle (%d files)",
			len(res.Oracle), len(local.Oracle))
	}
}

// TestRunProfileOverServerDedups replays the duplicate-rich ingest profile
// in a dedup mode over the wire and checks savings materialize post-COMMIT:
// the network front-end composes with the offline dedup pipeline.
func TestRunProfileOverServerDedups(t *testing.T) {
	t.Parallel()
	res, err := RunProfileOverServer(
		FSConfig{Mode: denova.ModeImmediate},
		tinyProfile(workload.BackupIngest(0), 400),
		ServeProfileOptions{Threads: 2, Profile: pmem.ProfileZero})
	if err != nil {
		t.Fatal(err)
	}
	if res.Savings <= 0 {
		t.Errorf("savings = %v after duplicate-rich ingest over the wire", res.Savings)
	}
}

// TestRunProfileOverServerUnderShedding shrinks the server to one worker
// with tiny queues so admission control sheds constantly; the client retry
// loop must still complete the whole trace with the oracle intact.
func TestRunProfileOverServerUnderShedding(t *testing.T) {
	t.Parallel()
	res, err := RunProfileOverServer(
		FSConfig{Mode: denova.ModeImmediate},
		tinyProfile(workload.Fileserver(0), 400),
		ServeProfileOptions{
			Threads: 4, Profile: pmem.ProfileZero,
			Server: server.Config{Workers: 1, MaxInflight: 2, QueueDepth: 1},
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 400 {
		t.Errorf("ops = %d, want 400", res.Ops)
	}
	t.Logf("sheds absorbed by retries: %d", res.Shed)
}

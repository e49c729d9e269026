package federation

import (
	"testing"
	"time"

	"megadata/internal/simnet"
	"megadata/internal/storage/diskio"
	"megadata/internal/uplink"
)

// TestUplinkLedgerBalances checks that no sealed frame vanishes from the
// export counters: after every EndEpoch, ReExportPending and Drain, each
// frame any hop sealed is delivered one hop up, still pending, dropped or
// rejected — under flaky links, failing spill writes, and a queued frame
// the receiving hop cannot decode.
func TestUplinkLedgerBalances(t *testing.T) {
	const perLeaf = 100
	flaky := simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond, FailEvery: 2}
	down := simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond, FailEvery: 1}
	cases := []struct {
		name    string
		cfg     FleetConfig
		corrupt bool
	}{
		{name: "fail-every links", cfg: FleetConfig{Link: flaky}},
		{name: "faulty spill writes", cfg: FleetConfig{
			QueueBytes: fleetFrameBytes(t, perLeaf), SpillDir: t.TempDir(),
			FS: diskio.NewFaulty(diskio.OS{}, diskio.FaultPlan{FailEveryWrite: 2}),
		}},
		{name: "corrupted queued frame", corrupt: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Fanout = []int{2, 2}
			cfg.DeltaExports = true
			fl, err := NewFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.cfg.Link != flaky {
				fleetOutage(t, fl, down)
			}
			balanced := func(after string) {
				t.Helper()
				l := fl.ledger()
				got := l.Delivered + uint64(fl.PendingExports()+fl.DroppedExports()+fl.DroppedFrames()) + l.Rejected
				if got != l.Sealed {
					t.Fatalf("after %s: sealed %d, but delivered %d + pending %d + dropped %d + dropped frames %d + rejected %d = %d",
						after, l.Sealed, l.Delivered, fl.PendingExports(), fl.DroppedExports(), fl.DroppedFrames(), l.Rejected, got)
				}
			}
			const epochs = 5
			for e := 0; e < epochs; e++ {
				// The same traffic every epoch: every hop ships deltas.
				ingestFleet(t, fl, 0, perLeaf)
				if err := fl.EndEpoch(); err != nil {
					t.Fatal(err)
				}
				balanced("EndEpoch")
			}
			if sealed, hops := fl.ledger().Sealed, uint64(len(fl.nodes)-1); sealed != hops*epochs {
				t.Fatalf("sealed %d frames, want %d hops x %d epochs", sealed, hops, epochs)
			}
			if c.corrupt {
				fl.Leaves()[0].up.Inspect(func(q []uplink.Frame) {
					q[0].Wire = []byte("not a flowtree")
				})
			}
			fleetOutage(t, fl, simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond})
			_, err = fl.ReExportPending()
			if err != nil && !c.corrupt {
				t.Fatal(err)
			}
			balanced("ReExportPending")
			if err := fl.Drain(0); err != nil {
				t.Fatal(err)
			}
			balanced("Drain")
			l := fl.ledger()
			if c.corrupt && (l.Rejected != 1 || fl.DroppedFrames() == 0) {
				t.Errorf("ledger %+v, want the corrupted frame rejected and its deltas dropped", l)
			}
			if c.cfg.FS != nil && (l.SpillErrors == 0 || l.Spilled == 0) {
				t.Errorf("ledger %+v, want both spills and failed spill writes", l)
			}
		})
	}
}

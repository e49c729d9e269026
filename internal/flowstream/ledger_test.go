package flowstream

import (
	"testing"
	"time"

	"megadata/internal/flow"
	"megadata/internal/simnet"
	"megadata/internal/storage/diskio"
	"megadata/internal/uplink"
)

// TestUplinkLedgerBalances checks that no sealed epoch vanishes from the
// export counters: after every EndEpoch and ReExportPending, each one is
// delivered to central, still pending, dropped or rejected — under flaky
// links, failing spill writes, and a queued frame central cannot decode.
func TestUplinkLedgerBalances(t *testing.T) {
	flaky := simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond, FailEvery: 2}
	cases := []struct {
		name    string
		cfg     Config
		corrupt bool
	}{
		{name: "fail-every links", cfg: Config{Link: flaky, RetentionBytes: retentionFor(t, 2)}},
		{name: "faulty spill writes", cfg: Config{
			Link: linkDown, RetentionBytes: retentionFor(t, 2), SpillDir: t.TempDir(),
			DiskFS: diskio.NewFaulty(diskio.OS{}, diskio.FaultPlan{FailEveryWrite: 2}),
		}},
		{name: "corrupted queued frame", cfg: Config{Link: linkDown}, corrupt: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Sites = []string{"a", "b"}
			cfg.Epoch = time.Minute
			cfg.DeltaExports = true
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sealed := 0
			balanced := func(after string) {
				t.Helper()
				l := sys.ledger()
				got := sys.DB.Len() + sys.PendingExports() + sys.DroppedExports() + int(l.Rejected)
				if got != sealed || int(l.Sealed) != sealed {
					t.Fatalf("after %s: sealed %d, but delivered %d + pending %d + dropped %d + rejected %d = %d (ledger %+v)",
						after, sealed, sys.DB.Len(), sys.PendingExports(), sys.DroppedExports(), l.Rejected, got, l)
				}
			}
			for e := 0; e < 6; e++ {
				// Four steady flows, one re-weighted per epoch: epochs
				// after the first ship as deltas.
				recs := make([]flow.Record, 4)
				for i := range recs {
					recs[i] = oneFlow
					recs[i].Key.SrcPort += uint16(i)
				}
				recs[e%4].Bytes += uint64(e)
				for _, site := range cfg.Sites {
					if err := sys.Ingest(site, recs); err != nil {
						t.Fatal(err)
					}
				}
				if err := sys.EndEpoch(); err != nil {
					t.Fatal(err)
				}
				sealed += len(cfg.Sites)
				balanced("EndEpoch")
			}
			if c.corrupt {
				sys.uplinks["a"].Inspect(func(q []uplink.Frame) {
					q[0].Wire = []byte("not a flowtree")
				})
			}
			for _, site := range cfg.Sites {
				if err := sys.Net.Connect(simnet.SiteID(site), sys.central, linkUp); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 3; round++ {
				_, err := sys.ReExportPending()
				if err != nil && !c.corrupt {
					t.Fatal(err)
				}
				balanced("ReExportPending")
			}
			if sys.PendingExports() != 0 {
				t.Errorf("pending=%d after re-export", sys.PendingExports())
			}
			l := sys.ledger()
			if c.corrupt && (l.Rejected != 1 || l.DroppedAfterReject == 0) {
				t.Errorf("ledger %+v, want the corrupted frame rejected and its deltas dropped", l)
			}
			if c.cfg.DiskFS != nil && l.SpillErrors == 0 {
				t.Errorf("no spill write failed: %+v", l)
			}
		})
	}
}

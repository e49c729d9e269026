package federation

import (
	"testing"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowtree"
	"megadata/internal/simnet"
)

// capFlows returns n distinct exact flows whose byte counters are scaled
// by mult, starting at source address offset first.
func capFlows(first, n int, mult uint64) []flow.Record {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			Key:     flow.Exact(flow.ProtoTCP, flow.IPv4(0x0A000000+first+i), 0xC0A80101, 40000, 443),
			Packets: 1, Bytes: 100 * mult,
		}
	}
	return recs
}

// TestFleetQueueCapCountsDroppedDeltas pins the byte accounting of the
// uplink queue cap: a delta dropped for chain integrity leaves the queued
// byte count, so frames behind it are judged by what is really queued.
// Four epochs queue behind a dead link as [full A, δB, full C, δD], the
// cap sized so that A and δB must go but C and δD fit. Counting δB's bytes
// as still queued evicted C and then δD too: nothing survived.
func TestFleetQueueCapCountsDroppedDeltas(t *testing.T) {
	const churn = 0.5
	// A delta must leave more than half its entries unchanged (added
	// entries count as churn), so δD can outweigh A only by building on a
	// much larger full frame C.
	epochs := [][]flow.Record{
		capFlows(0, 10, 1), // A: full (no base)
		append(capFlows(0, 10, 1), capFlows(10, 5, 1)...), // δB: A plus a few new flows
		capFlows(0, 100, 2), // C: every entry changed
		append(capFlows(0, 100, 2), capFlows(100, 90, 1)...), // δD: C plus many new flows
	}
	var (
		size [4]uint64
		want flow.Counters // epochs C and D, the frames that must arrive
		prev *flowtree.Tree
	)
	for e, recs := range epochs {
		tr, err := flowtree.New(0)
		if err != nil {
			t.Fatal(err)
		}
		tr.AddBatch(recs)
		wire, delta := tr.AppendDeltaOrFull(nil, prev, churn)
		if delta != (e%2 == 1) {
			t.Fatalf("setup: epoch %d delta=%v", e, delta)
		}
		size[e] = uint64(len(wire))
		if e >= 2 {
			want.Add(tr.Total())
		}
		prev = tr
	}
	a, b, c, d := size[0], size[1], size[2], size[3]
	capBytes := max(a+b+c, c+d)
	if b+c+d <= capBytes {
		t.Fatalf("setup: sizes %v leave no room for the stale count to bite", size)
	}

	fl, err := NewFleet(FleetConfig{
		Fanout:        []int{1},
		DeltaExports:  true,
		DeltaMaxChurn: churn,
		QueueBytes:    capBytes,
		Link:          simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond, FailEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf := fl.Leaves()[0]
	for _, recs := range epochs {
		if err := fl.Ingest(leaf.ID, recs); err != nil {
			t.Fatal(err)
		}
		if err := fl.EndEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if got := fl.DroppedExports(); got != 2 {
		t.Errorf("DroppedExports=%d, want 2 (A evicted, δB chained behind it)", got)
	}
	if got := fl.PendingExports(); got != 2 {
		t.Fatalf("PendingExports=%d, want 2 (C and δD fit under the cap)", got)
	}
	// Link back up: C ships full and δD applies onto it.
	if err := fl.Net.Connect(leaf.ID, leaf.Parent.ID, simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if n, err := fl.ReExportPending(); err != nil || n != 2 {
		t.Fatalf("ReExportPending: n=%d err=%v, want 2 delivered", n, err)
	}
	tree, err := fl.CentralTree()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Total() != want {
		t.Errorf("central total %+v, want %+v", tree.Total(), want)
	}
}

package uplink_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowtree"
	"megadata/internal/simnet"
	"megadata/internal/uplink"
)

var t0 = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

// link is one uplink under test: a Sender over a fake send func, and a
// Receiver standing in for the next hop. Its keep rule refuses frames
// older than cut (a retention horizon) and, with capBytes set, frames
// while more than capBytes are queued.
type link struct {
	t        *testing.T
	s        *uplink.Sender
	recv     *uplink.Receiver
	sendFn   atomic.Value // func(n uint64) error
	dir      string       // spill directory
	cut      time.Time
	capBytes uint64
	epoch    int
	totals   map[time.Time]flow.Counters // sealed total per epoch start
	got      []time.Time                 // delivered epoch starts, in order
	deltas   []bool                      // whether each delivered frame was a delta
}

// up, down and broken are the fake link states.
func up(uint64) error     { return nil }
func down(uint64) error   { return simnet.ErrTransient }
func broken(uint64) error { return simnet.ErrNoRoute }

func newLink(t *testing.T, delta, spill bool) *link {
	l := &link{t: t, recv: uplink.NewReceiver(delta, 0), cut: t0, totals: map[time.Time]flow.Counters{}}
	l.sendFn.Store(up)
	cfg := uplink.Config{
		Name: "edge",
		Send: func(n uint64) error { return l.sendFn.Load().(func(uint64) error)(n) },
		Keep: func(f uplink.Frame, queued uint64) bool {
			return !f.Start.Before(l.cut) && (l.capBytes == 0 || queued <= l.capBytes)
		},
		Delta:    delta,
		MaxChurn: 0.5,
	}
	if spill {
		l.dir = t.TempDir()
		cfg.SpillDir = l.dir
	}
	l.s = uplink.NewSender(cfg)
	return l
}

// epochTree is epoch e's summary: ten steady flows, one of them re-weighted
// per epoch (a delta-sized change), plus `extra` fresh flows.
func epochTree(t *testing.T, e, extra int) *flowtree.Tree {
	tr, err := flowtree.New(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10+extra; i++ {
		src := flow.IPv4(0x0A000000 + i)
		if i >= 10 {
			src = flow.IPv4(0x0B000000 + e*1000 + i)
		}
		bytes := uint64(100)
		if i == e%10 {
			bytes += uint64(e)
		}
		tr.Add(flow.Record{Key: flow.Exact(flow.ProtoTCP, src, 0xC0A80101, 40000, 443), Packets: 1, Bytes: bytes})
	}
	return tr
}

func (l *link) deliver(f uplink.Frame) error {
	tree, err := l.recv.Decode("edge", f.Wire)
	if err != nil {
		return err
	}
	if tree.Total() != l.totals[f.Start] {
		l.t.Errorf("epoch %v decoded to %+v, sealed %+v", f.Start, tree.Total(), l.totals[f.Start])
	}
	l.got = append(l.got, f.Start)
	l.deltas = append(l.deltas, f.Delta)
	return nil
}

// ship seals the next epoch over the link in state send and checks the
// ledger identity.
func (l *link) ship(send func(uint64) error) error {
	l.t.Helper()
	l.sendFn.Store(send)
	tr := epochTree(l.t, l.epoch, 0)
	start := t0.Add(time.Duration(l.epoch) * time.Minute)
	l.totals[start] = tr.Total()
	l.epoch++
	_, err := l.s.Ship(start, time.Minute, tr, l.deliver)
	l.balanced()
	return err
}

func (l *link) reship(send func(uint64) error) (int, error) {
	l.t.Helper()
	l.sendFn.Store(send)
	n, err := l.s.Reship(l.deliver)
	l.balanced()
	return n, err
}

func (l *link) balanced() {
	l.t.Helper()
	g := l.s.Ledger()
	if g.Sealed != g.Delivered+g.Pending+g.Dropped+g.DroppedAfterReject+g.Rejected {
		l.t.Fatalf("ledger out of balance: %+v", g)
	}
}

// queued returns the epoch starts still queued, oldest first.
func (l *link) queued() []time.Time {
	var out []time.Time
	l.s.Inspect(func(q []uplink.Frame) {
		for _, f := range q {
			out = append(out, f.Start)
		}
	})
	return out
}

func starts(epochs ...int) []time.Time {
	out := make([]time.Time, len(epochs))
	for i, e := range epochs {
		out[i] = t0.Add(time.Duration(e) * time.Minute)
	}
	return out
}

func noErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSender(t *testing.T) {
	cases := []struct {
		name         string
		delta, spill bool
		run          func(t *testing.T, l *link)
		want         uplink.Ledger
	}{{
		name: "transient failure requeues in order",
		run: func(t *testing.T, l *link) {
			for e := 0; e < 3; e++ {
				noErr(t, l.ship(down))
			}
			if n, err := l.reship(broken); err == nil || n != 0 {
				t.Fatalf("broken link: n=%d err=%v, want a surfaced error", n, err)
			}
			if got := l.queued(); !slices.Equal(got, starts(0, 1, 2)) {
				t.Fatalf("queue %v, want epochs 0-2 in order", got)
			}
			noErr(t, l.ship(up))
			if !slices.Equal(l.got, starts(0, 1, 2, 3)) {
				t.Errorf("delivered %v, want epochs 0-3 in order", l.got)
			}
		},
		want: uplink.Ledger{Sealed: 4, Delivered: 4},
	}, {
		name:  "delta chain breaks after a drop and resets",
		delta: true,
		run: func(t *testing.T, l *link) {
			for e := 0; e < 3; e++ {
				noErr(t, l.ship(down))
			}
			// Epoch 0 falls off the horizon: it and the deltas 1-3 chained
			// behind it can never apply.
			l.cut = starts(1)[0]
			noErr(t, l.ship(down))
			if got := l.queued(); len(got) != 0 {
				t.Fatalf("queue %v, want empty after the chain break", got)
			}
			noErr(t, l.ship(up))
			noErr(t, l.ship(up))
			if !slices.Equal(l.got, starts(4, 5)) || !slices.Equal(l.deltas, []bool{false, true}) {
				t.Errorf("delivered %v deltas %v, want 4 full then 5 delta", l.got, l.deltas)
			}
		},
		want: uplink.Ledger{Sealed: 6, Delivered: 2, Dropped: 4},
	}, {
		name:  "spill, unspill and discard",
		delta: true, spill: true,
		run: func(t *testing.T, l *link) {
			noErr(t, l.ship(down))
			noErr(t, l.ship(down))
			l.cut = starts(2)[0]
			noErr(t, l.ship(down))
			if g := l.s.Ledger(); g.Spilled != 2 || g.Pending != 3 {
				t.Fatalf("ledger %+v, want 2 spilled of 3 pending", g)
			}
			if n, err := l.reship(up); err != nil || n != 3 {
				t.Fatalf("reship: n=%d err=%v", n, err)
			}
			if !slices.Equal(l.got, starts(0, 1, 2)) {
				t.Errorf("delivered %v, want epochs 0-2 in order", l.got)
			}
			if segs, _ := filepath.Glob(filepath.Join(l.dir, "edge", "*.seg")); len(segs) != 0 {
				t.Errorf("%d spill segments left after delivery", len(segs))
			}
		},
		want: uplink.Ledger{Sealed: 3, Delivered: 3, Spilled: 2},
	}, {
		name:  "unreadable spilled frame is counted as corrupt",
		delta: true, spill: true,
		run: func(t *testing.T, l *link) {
			noErr(t, l.ship(down))
			noErr(t, l.ship(down))
			l.cut = starts(2)[0]
			noErr(t, l.ship(down))
			segs, err := filepath.Glob(filepath.Join(l.dir, "edge", "*.seg"))
			if err != nil || len(segs) != 2 {
				t.Fatalf("spill segments %v, %v", segs, err)
			}
			blob, err := os.ReadFile(segs[0])
			noErr(t, err)
			blob[len(blob)-1] ^= 0xFF
			noErr(t, os.WriteFile(segs[0], blob, 0o644))
			// Full epoch 0 is unreadable: it and deltas 1-2 are lost, and
			// the chain resets so epoch 3 ships full.
			if _, err := l.reship(up); err == nil {
				t.Fatal("corrupt spill must surface an error")
			}
			noErr(t, l.ship(up))
			if !slices.Equal(l.got, starts(3)) || l.deltas[0] {
				t.Errorf("delivered %v deltas %v, want epoch 3 as a full frame", l.got, l.deltas)
			}
		},
		want: uplink.Ledger{Sealed: 4, Delivered: 1, Dropped: 3, Spilled: 2, CorruptSpills: 1},
	}, {
		name:  "rejected frame drops its chain",
		delta: true,
		run: func(t *testing.T, l *link) {
			for e := 0; e < 3; e++ {
				noErr(t, l.ship(down))
			}
			l.s.Inspect(func(q []uplink.Frame) { q[0].Wire = []byte("not a flowtree") })
			if _, err := l.reship(up); err == nil {
				t.Fatal("undecodable frame must surface an error")
			}
			noErr(t, l.ship(up))
			if !slices.Equal(l.got, starts(3)) || l.deltas[0] {
				t.Errorf("delivered %v deltas %v, want epoch 3 as a full frame", l.got, l.deltas)
			}
		},
		want: uplink.Ledger{Sealed: 4, Delivered: 1, Rejected: 1, DroppedAfterReject: 2},
	}, {
		// [full A, δB, full C, δD] at 100 B each under a 250 B cap: A goes,
		// δB goes with it and leaves the byte count, so C and δD fit.
		name: "queue cap counts the bytes of dropped deltas",
		run: func(t *testing.T, l *link) {
			for e := 0; e < 4; e++ {
				noErr(t, l.ship(down))
			}
			l.s.Inspect(func(q []uplink.Frame) {
				for i := range q {
					q[i].Wire = make([]byte, 100)
					q[i].Delta = i%2 == 1
				}
			})
			l.capBytes = 250
			if _, err := l.reship(down); err != nil {
				t.Fatal(err)
			}
			if got := l.queued(); !slices.Equal(got, starts(2, 3)) {
				t.Errorf("queue %v, want epochs 2-3", got)
			}
		},
		want: uplink.Ledger{Sealed: 4, Pending: 2, Dropped: 2},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newLink(t, c.delta, c.spill)
			c.run(t, l)
			got := l.s.Ledger()
			got.SpilledBytes = 0
			if got != c.want {
				t.Errorf("ledger %+v, want %+v", got, c.want)
			}
		})
	}
}

func TestReceiverBudget(t *testing.T) {
	tr := epochTree(t, 0, 40)
	wire := tr.AppendBinary(nil)
	for _, delta := range []bool{false, true} {
		r := uplink.NewReceiver(delta, 8)
		got, err := r.Decode("edge", wire)
		noErr(t, err)
		if got.Total() != tr.Total() || got.Len() > 8 {
			t.Errorf("delta=%v: decoded %d nodes total %+v, want <= 8 nodes total %+v",
				delta, got.Len(), got.Total(), tr.Total())
		}
	}
	if _, err := uplink.NewReceiver(true, 0).Decode("edge", []byte("junk")); !errors.Is(err, flowtree.ErrCodec) {
		t.Errorf("junk frame: err=%v, want ErrCodec", err)
	}
}

func TestForEach(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{0, 4}, {1, 8}, {5, 1}, {37, 4}, {3, 16}} {
		var (
			seen   = make([]atomic.Int32, c.n)
			active atomic.Int32
			peak   atomic.Int32
		)
		uplink.ForEach(c.n, c.workers, func(i int) {
			if a := active.Add(1); a > peak.Load() {
				peak.Store(a)
			}
			seen[i].Add(1)
			active.Add(-1)
		})
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", c.n, c.workers, i, seen[i].Load())
			}
		}
		if p := int(peak.Load()); p > max(c.workers, 1) {
			t.Errorf("n=%d workers=%d: %d calls in flight", c.n, c.workers, p)
		}
	}
}

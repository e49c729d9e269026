// Package uplink moves sealed Flowtree epoch summaries one hop up the WAN
// (Figure 5 step 3). A Sender per uplink encodes each sealed epoch as a
// frame, queues it and ships the queue to the next hop; a Receiver per
// receiving hop decodes what arrives. The flat flowstream deployment and
// every hop of the multi-level federation fleet export through it.
//
// Three rules hold on every uplink:
//
//   - Stream order. Frames reach the receiver in the order they were
//     sealed. A Sender ships under one lock, each ship drains the whole
//     queue oldest first, and a frame the link refuses goes back to the
//     head of the queue with everything behind it. A v3 delta frame decodes
//     only against the frame right before it, so this is what keeps delta
//     chains decodable.
//   - Chain reset. A lost frame — refused by the cap with nowhere to spill,
//     unreadable from the spill store, or rejected by the receiver — takes
//     every delta frame chained directly behind it along, up to the next
//     full frame: those deltas can never apply. When no full frame follows,
//     the sender's chain tail is cleared, so the next sealed epoch ships as a
//     full frame.
//   - Cap after ship. The queue cap runs on what the link left behind after
//     a ship attempt, never before it: the encoded frame in the queue is the
//     data, so a frame over the cap still ships whenever the link lets it
//     through. The front end supplies the cap as a keep rule; a queued frame
//     it refuses is spilled to disk when a spill directory is set and
//     dropped otherwise. Spilled frames cost disk, not memory, and are never
//     refused.
//
// Every frame a Sender accepts ends in exactly one bucket of its Ledger, so
// Sealed == Delivered + Pending + Dropped + DroppedAfterReject + Rejected
// holds for every snapshot.
package uplink

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"megadata/internal/flowtree"
	"megadata/internal/simnet"
	"megadata/internal/storage"
	"megadata/internal/storage/disk"
	"megadata/internal/storage/diskio"
)

// Frame is one sealed, encoded epoch summary on an uplink.
type Frame struct {
	Start time.Time
	Width time.Duration
	// Wire is the encoded summary (nil while the frame is spilled to disk;
	// always set in the frame handed to a deliver func).
	Wire []byte
	// Delta marks a v3 frame, decodable only right after the frame before
	// it in the stream.
	Delta bool

	spilled bool
}

// Ledger counts where a Sender's frames went. A frame the sender loses (cap
// refusal with no spill, unreadable spill) and the deltas chained behind it
// count in Dropped; a frame the receiver rejects counts in Rejected and the
// deltas chained behind it in DroppedAfterReject.
type Ledger struct {
	Sealed             uint64
	Delivered          uint64
	Pending            uint64
	Dropped            uint64
	DroppedAfterReject uint64
	Rejected           uint64
	// Spilled and SpilledBytes count frames written to the spill store
	// (cumulative, not currently resident).
	Spilled      uint64
	SpilledBytes uint64
	// SpillErrors counts failed spill-store opens and writes (each write
	// failure falls back to dropping the frame).
	SpillErrors uint64
	// CorruptSpills counts spilled frames that failed checksum verification
	// or went missing when read back; each is also counted in Dropped.
	CorruptSpills uint64
}

// Add accumulates o into l.
func (l *Ledger) Add(o Ledger) {
	l.Sealed += o.Sealed
	l.Delivered += o.Delivered
	l.Pending += o.Pending
	l.Dropped += o.Dropped
	l.DroppedAfterReject += o.DroppedAfterReject
	l.Rejected += o.Rejected
	l.Spilled += o.Spilled
	l.SpilledBytes += o.SpilledBytes
	l.SpillErrors += o.SpillErrors
	l.CorruptSpills += o.CorruptSpills
}

// Config parameterizes one Sender.
type Config struct {
	// Name names the uplink's spill subdirectory.
	Name string
	// Send moves n bytes across the link. An error wrapping
	// simnet.ErrTransient leaves the frame queued for the next ship without
	// an error; any other error also requeues it and is returned.
	Send func(n uint64) error
	// Keep is the queue cap: whether in-memory frame f may stay queued,
	// given the in-memory bytes the queue holds at that point of the
	// oldest-first walk (frames ahead of f that were spilled or dropped no
	// longer count). nil keeps every frame.
	Keep func(f Frame, queuedBytes uint64) bool
	// Delta encodes each frame as a v3 delta against the previous frame
	// when churn permits (flowtree.AppendDeltaOrFull, threshold MaxChurn).
	Delta    bool
	MaxChurn float64
	// SpillDir, when set, spills cap-refused frames to a segment store in
	// SpillDir/Name through FS (nil = the real filesystem).
	SpillDir string
	FS       diskio.FS
}

// Sender is the sending end of one uplink.
type Sender struct {
	cfg Config

	// mu is the ship lock: it serializes every ship of this uplink (so
	// frames enter the link in stream order) and guards the fields below.
	// It is held across Send and deliver calls, which must not call back
	// into the Sender.
	mu    sync.Mutex
	queue []Frame
	base  *flowtree.Tree // chain tail the next delta encodes against
	spill *disk.SegmentStore
	led   Ledger

	// pub is led as of the end of the last ship, readable without waiting
	// out a ship in flight.
	pubMu sync.Mutex
	pub   Ledger
}

// NewSender builds the sending end of one uplink.
func NewSender(cfg Config) *Sender {
	return &Sender{cfg: cfg}
}

// Ledger returns the sender's counters as of its last completed ship.
func (s *Sender) Ledger() Ledger {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.pub
}

// Ship appends sealed, the summary of epoch [start, start+width), to the
// stream and ships the whole queue to the next hop in order, handing each
// frame the link carries to deliver; then it applies the cap to what is
// still queued. It returns how many frames deliver accepted. A deliver
// error rejects the frame.
func (s *Sender) Ship(start time.Time, width time.Duration, sealed *flowtree.Tree, deliver func(Frame) error) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := Frame{Start: start, Width: width}
	if s.cfg.Delta {
		f.Wire, f.Delta = sealed.AppendDeltaOrFull(nil, s.base, s.cfg.MaxChurn)
		s.base = sealed
	} else {
		f.Wire = sealed.AppendBinary(nil)
	}
	s.queue = append(s.queue, f)
	s.led.Sealed++
	return s.shipLocked(deliver)
}

// Reship ships what is queued without appending a new epoch — the
// re-export path after transient failures.
func (s *Sender) Reship(deliver func(Frame) error) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return 0, nil
	}
	return s.shipLocked(deliver)
}

// Inspect calls fn with the queued frames, oldest first, under the ship
// lock. fn may rewrite frames in place (fault-injection tests corrupt one);
// it must not call back into the Sender.
func (s *Sender) Inspect(fn func(queue []Frame)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.queue)
}

// shipLocked ships the queue, caps the remainder and publishes the ledger.
func (s *Sender) shipLocked(deliver func(Frame) error) (int, error) {
	n, err := s.drain(deliver)
	s.capQueue()
	s.led.Pending = uint64(len(s.queue))
	s.pubMu.Lock()
	s.pub = s.led
	s.pubMu.Unlock()
	return n, err
}

// drain ships queued frames in order until the queue is empty or a frame
// fails, leaving what did not ship at the head of the queue.
func (s *Sender) drain(deliver func(Frame) error) (int, error) {
	for i := range s.queue {
		f := s.queue[i]
		if f.spilled {
			wire, err := s.unspill(f)
			if err != nil {
				// Retrying would re-read the same bytes: the frame is lost.
				s.led.CorruptSpills++
				s.led.Dropped++
				s.dropChain(i+1, &s.led.Dropped)
				return i, fmt.Errorf("read spilled frame: %w", err)
			}
			f.Wire = wire
		}
		if err := s.cfg.Send(uint64(len(f.Wire))); err != nil {
			s.behead(i)
			if errors.Is(err, simnet.ErrTransient) {
				return i, nil
			}
			return i, fmt.Errorf("send: %w", err)
		}
		if err := deliver(f); err != nil {
			// The frame reached the receiver and would not decode on a
			// retry either; it is not requeued.
			s.discard(f)
			s.led.Rejected++
			s.dropChain(i+1, &s.led.DroppedAfterReject)
			return i, fmt.Errorf("deliver: %w", err)
		}
		s.discard(f)
		s.led.Delivered++
	}
	n := len(s.queue)
	s.behead(n)
	return n, nil
}

// dropChain removes the queue head up to index i (its frame already
// accounted for), then drops, counting each in *count, the delta frames
// chained behind the lost frame. If nothing survives, the chain tail is
// cleared so the next sealed epoch ships full.
func (s *Sender) dropChain(i int, count *uint64) {
	for i < len(s.queue) && s.queue[i].Delta {
		s.discard(s.queue[i])
		*count++
		i++
	}
	s.behead(i)
	if len(s.queue) == 0 {
		s.base = nil
	}
}

// behead removes the first i queued frames in place, keeping the backing
// array for the next epoch and releasing the removed frames' bytes.
func (s *Sender) behead(i int) {
	n := copy(s.queue, s.queue[i:])
	clear(s.queue[n:])
	s.queue = s.queue[:n]
}

// capQueue applies Config.Keep to what is still queued after a ship,
// oldest first (see the package comment). Every frame the walk spills or
// drops, chained deltas included, leaves queued before the next frame is
// judged.
func (s *Sender) capQueue() {
	if s.cfg.Keep == nil || len(s.queue) == 0 {
		return
	}
	var queued uint64
	for i := range s.queue {
		queued += uint64(len(s.queue[i].Wire))
	}
	kept := s.queue[:0]
	broken := false
	for _, f := range s.queue {
		switch {
		case broken && f.Delta:
			queued -= uint64(len(f.Wire))
			s.discard(f)
			s.led.Dropped++
		case f.spilled || s.cfg.Keep(f, queued):
			kept = append(kept, f)
			broken = false
		default:
			queued -= uint64(len(f.Wire))
			if s.spillFrame(&f) {
				kept = append(kept, f)
				broken = false
				continue
			}
			s.led.Dropped++
			broken = true
		}
	}
	clear(s.queue[len(kept):])
	s.queue = kept
	if broken {
		s.base = nil
	}
}

// store returns the uplink's spill store, opening it on first use; nil
// without a SpillDir or when the open fails (counted, retried next time).
func (s *Sender) store() *disk.SegmentStore {
	if s.spill != nil || s.cfg.SpillDir == "" {
		return s.spill
	}
	sp, err := disk.OpenSegmentStore(s.cfg.FS, filepath.Join(s.cfg.SpillDir, s.cfg.Name))
	if err != nil {
		s.led.SpillErrors++
		return nil
	}
	s.spill = sp
	return sp
}

// spillFrame moves f's bytes into the spill store, marking it frameless on
// success. A failed write is counted and reported false.
func (s *Sender) spillFrame(f *Frame) bool {
	sp := s.store()
	if sp == nil {
		return false
	}
	err := sp.Put(storage.Epoch[[]byte]{
		Start: f.Start, Width: f.Width,
		Size: uint64(len(f.Wire)), Payload: f.Wire,
	})
	if err != nil {
		s.led.SpillErrors++
		return false
	}
	s.led.Spilled++
	s.led.SpilledBytes += uint64(len(f.Wire))
	f.Wire = nil
	f.spilled = true
	return true
}

// unspill reads a spilled frame back, checksum-verified.
func (s *Sender) unspill(f Frame) ([]byte, error) {
	sp := s.store()
	if sp == nil {
		return nil, errors.New("spill store unavailable")
	}
	wire, ok, err := sp.Get(f.Start)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("spilled frame %v missing from disk", f.Start)
	}
	return wire, nil
}

// discard deletes a delivered or dropped frame's on-disk copy, if it has
// one (best effort: an orphaned segment wastes space, nothing else).
func (s *Sender) discard(f Frame) {
	if !f.spilled {
		return
	}
	if sp := s.store(); sp != nil {
		_, _ = sp.Drop(f.Start)
	}
}

// Receiver is the receiving end of every uplink into one hop. With delta
// frames it keeps, per child, the full-fidelity reconstruction of the last
// frame it accepted: the base the child's next delta applies onto.
type Receiver struct {
	delta  bool
	budget int

	mu    sync.Mutex
	bases map[string]*flowtree.Tree
}

// NewReceiver builds a receiving hop. budget is the node budget of the
// trees Decode returns (0 = full fidelity); delta must match the senders.
func NewReceiver(delta bool, budget int) *Receiver {
	return &Receiver{delta: delta, budget: budget, bases: make(map[string]*flowtree.Tree)}
}

// Decode reconstructs one frame delivered from child, re-compressed to the
// receiver's budget. Frames from one child must arrive in stream order
// (Sender guarantees it); different children may decode concurrently.
func (r *Receiver) Decode(child string, wire []byte) (*flowtree.Tree, error) {
	if !r.delta {
		return flowtree.Decode(wire, r.budget)
	}
	r.mu.Lock()
	base := r.bases[child]
	r.mu.Unlock()
	recon, err := flowtree.DecodeDelta(wire, base, 0)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.bases[child] = recon
	r.mu.Unlock()
	if r.budget == 0 {
		return recon, nil
	}
	// The retained base stays at full fidelity; only the returned copy is
	// budgeted.
	row := recon.Clone()
	if err := row.SetBudget(r.budget); err != nil {
		return nil, err
	}
	return row, nil
}

// ForEach runs fn(0) … fn(n-1) on at most workers goroutines and returns
// once every call has: the bounded export pool an epoch ships through.
func ForEach(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

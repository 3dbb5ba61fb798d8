package sim

import (
	"math/bits"
	"slices"
)

// This file holds the simulator's event queue, a hierarchical timing
// wheel — O(1) schedule and amortized O(1) fire. It pops in exactly the
// total order (At, seq): At is the virtual delivery tick and seq the
// global scheduling sequence number, so equal-tick events fire in FIFO
// order. Because that order is total, any two correct queues produce
// byte-identical traces; the tests hold the wheel to a binary-heap
// oracle (heap_test.go).

// msgLess is the scheduling order: delivery tick, then FIFO sequence.
func msgLess(a, b Message) bool {
	return a.At < b.At || (a.At == b.At && a.seq < b.seq)
}

// eventQueue is the scheduler behind Network. push accepts a message
// whose seq is already assigned; pop returns events in (At, seq) order.
type eventQueue interface {
	push(m Message)
	pop() (Message, bool)
	len() int
}

const (
	wheelBits     = 6
	wheelSlots    = 1 << wheelBits // 64 slots per level
	wheelMask     = wheelSlots - 1
	wheelLevels   = 4
	wheelSpanBits = wheelBits * wheelLevels // the wheel covers 2^24 ticks
)

// wheelQueue is a hierarchical timing wheel over virtual time:
// wheelLevels levels of wheelSlots buckets, where level l buckets
// events by the l-th 6-bit digit of their delivery tick.
//
// Placement is by digit, not by delta: an event lands at the most
// significant digit position where its tick differs from the wheel's
// current time (`now`). That choice carries the invariants the
// correctness argument rests on:
//
//   - every event in a level-l bucket shares all digits above l with
//     now, and its digit at l is strictly greater than now's (no bucket
//     ever mixes the current lap with the next), so
//   - the lowest occupied level always contains the globally next
//     event, found by one TrailingZeros64 over the level's occupancy
//     bitmap, and
//   - cascading a level-l bucket after advancing now to the bucket's
//     window start re-inserts every event at a strictly lower level —
//     progress is guaranteed, and each event cascades at most
//     wheelLevels-1 times.
//
// Events beyond the wheel's 2^24-tick span wait in an overflow list;
// they are provably later than everything in the wheel, so they
// migrate only when the wheel drains. Firing copies a whole level-0
// bucket into the batch buffer and sorts it by (At, seq) — a bucket is
// almost always a single tick, so the sort is the FIFO tie-break, and
// same-tick events scheduled during the firing batch are spliced into
// it to preserve the global order.
//
// Buckets, the overflow list and the firing batch hold int32 handles
// into a per-queue Message arena, not Messages: a Message is copied
// into its arena cell once at push and out once at pop, every
// cascade moves four bytes, and the handle arrays are pointer-free, so
// the garbage collector never scans them. A popped cell is zeroed (it
// pins no party-ID or tag string) and recycled through a free list.
// Every bucket's backing array stays resident in its slot: draining or
// cascading reslices it to length zero instead of releasing it, so each
// array grows once to its workload's high-water mark and steady-state
// schedule+fire allocates nothing.
type wheelQueue struct {
	now   Time
	slots [wheelLevels][wheelSlots][]int32
	occ   [wheelLevels]uint64 // per-level bucket occupancy bitmaps
	count int                 // events in buckets + overflow, excluding the batch

	overflow    []int32
	overflowMin Time

	arena []Message // by handle
	free  []int32   // released handles

	// The active firing batch: a persistent buffer holding the drained
	// level-0 bucket's handles, sorted.
	batch     []int32
	batchIdx  int
	batchTime Time
	firing    bool
}

// newWheelQueue returns a wheel whose arena has room for n pending
// events.
func newWheelQueue(n int) *wheelQueue { return &wheelQueue{arena: make([]Message, 0, n)} }

func (w *wheelQueue) len() int { return w.count + len(w.batch) - w.batchIdx }

// alloc copies a message into a free arena cell and returns its handle.
func (w *wheelQueue) alloc(m *Message) int32 {
	if k := len(w.free) - 1; k >= 0 {
		h := w.free[k]
		w.free = w.free[:k]
		w.arena[h] = *m
		return h
	}
	w.arena = append(w.arena, *m)
	return int32(len(w.arena) - 1)
}

// release copies a message out of its cell, zeroes the cell and frees
// the handle.
func (w *wheelQueue) release(h int32) Message {
	m := w.arena[h]
	w.arena[h] = Message{}
	w.free = append(w.free, h)
	return m
}

// handleCmp orders two handles by their messages' (At, seq).
func (w *wheelQueue) handleCmp(a, b int32) int {
	ma, mb := &w.arena[a], &w.arena[b]
	if ma.At != mb.At {
		return int(ma.At - mb.At)
	}
	return ma.seq - mb.seq
}

func (w *wheelQueue) push(m Message) {
	h := w.alloc(&m)
	if w.firing && m.At <= w.batchTime {
		w.spliceBatch(h)
		return
	}
	w.insert(h)
}

// insert buckets one event relative to the wheel's current time.
func (w *wheelQueue) insert(h int32) {
	w.count++
	at := w.arena[h].At
	if at <= w.now {
		// Late (or exactly-now) events clamp into the current bucket;
		// the batch sort orders them correctly by their original At.
		w.place(0, int(w.now)&wheelMask, h)
		return
	}
	if at>>wheelSpanBits != w.now>>wheelSpanBits {
		if len(w.overflow) == 0 || at < w.overflowMin {
			w.overflowMin = at
		}
		w.overflow = append(w.overflow, h)
		return
	}
	diff := uint64(at ^ w.now)
	level := (63 - bits.LeadingZeros64(diff)) / wheelBits
	slot := int(at>>(uint(level)*wheelBits)) & wheelMask
	w.place(level, slot, h)
}

func (w *wheelQueue) place(level, slot int, h int32) {
	w.slots[level][slot] = append(w.slots[level][slot], h)
	w.occ[level] |= 1 << uint(slot)
}

// spliceBatch inserts a same-tick event scheduled mid-firing into the
// unconsumed tail of the active batch, keeping (At, seq) order. New
// events carry the largest seq so far, so the common case is a plain
// append.
func (w *wheelQueue) spliceBatch(h int32) {
	i := len(w.batch)
	for i > w.batchIdx && w.handleCmp(h, w.batch[i-1]) < 0 {
		i--
	}
	w.batch = slices.Insert(w.batch, i, h)
}

func (w *wheelQueue) pop() (Message, bool) {
	if w.batchIdx < len(w.batch) {
		h := w.batch[w.batchIdx]
		w.batchIdx++
		return w.release(h), true
	}
	w.batch = w.batch[:0]
	w.batchIdx = 0
	w.firing = false
	for {
		if w.count == 0 {
			return Message{}, false
		}
		level := -1
		for l := 0; l < wheelLevels; l++ {
			if w.occ[l] != 0 {
				level = l
				break
			}
		}
		if level < 0 {
			w.migrateOverflow()
			continue
		}
		slot := bits.TrailingZeros64(w.occ[level])
		events := w.slots[level][slot]
		w.occ[level] &^= 1 << uint(slot)
		w.count -= len(events)
		if level == 0 {
			w.now = (w.now &^ wheelMask) | Time(slot)
			w.batch = append(w.batch[:0], events...)
			w.slots[0][slot] = events[:0]
			slices.SortFunc(w.batch, w.handleCmp)
			w.batchIdx = 1
			w.batchTime = w.now
			w.firing = true
			return w.release(w.batch[0]), true
		}
		// Cascade: advance now to the bucket's window start and
		// re-insert; every event lands at a strictly lower level, so
		// none of the inserts can touch the bucket being ranged.
		shift := uint(level) * wheelBits
		windowMask := Time(1)<<(shift+wheelBits) - 1
		w.now = (w.now &^ windowMask) | Time(slot)<<shift
		for _, h := range events {
			w.insert(h)
		}
		w.slots[level][slot] = events[:0]
	}
}

// migrateOverflow jumps the wheel to the earliest overflow event —
// every overflow event is strictly later than everything the (now
// empty) wheel held — and re-buckets whatever now fits in the span.
func (w *wheelQueue) migrateOverflow() {
	waiting := w.overflow
	w.now = w.overflowMin
	w.overflow = nil
	w.overflowMin = 0
	w.count -= len(waiting)
	for _, h := range waiting {
		w.insert(h)
	}
}

// newQueue builds the timing wheel with room for n pending events.
func newQueue(n int) eventQueue { return newWheelQueue(n) }

package sim

import (
	"slices"
	"time"
)

// event is one scheduled simulation action. Events with equal times fire in
// scheduling order (seq), making runs fully deterministic for a fixed seed.
type event struct {
	at  int64 // unix nanoseconds
	seq uint64
	fn  func()
}

// cmpEvent orders events by (at, seq).
func cmpEvent(a, b event) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// The calendar's geometry. A quarter-scale day (city seed 1) schedules
// 1.2 M events: half of them less than 81 s ahead, 99 % less than 31 min
// ahead, and 1,413 more than 68 min ahead (breaks and shift ends, hours
// away). A ring of 4,096 one-second buckets therefore holds nearly every
// pending event, and the far heap stays small.
const (
	bucketNanos = int64(time.Second)
	ringBuckets = 1 << 12
)

// eventQueue is a calendar queue over (at, seq). The bucket of second s is
// ring slot s mod ringBuckets. The clock, sec, is the second being drained:
// its events sit in cur, sorted, and every pending event of a later second
// sits either in its ring slot (less than ringBuckets seconds ahead when it
// was pushed) or in the far heap. Every event of a ring slot therefore
// shares one second, and the far heap's events join their bucket when the
// clock reaches it.
//
// Queued events live in one slab of nodes, recycled through a free list,
// so the queue holds O(pending) storage that grows only when more events
// are pending than ever before. Pops return events in exactly the binary
// heap's order (the reference in events_test.go).
type eventQueue struct {
	nodes []node  // the slab; nodes[0] is unused, so index 0 means none
	free  int32   // head of the free list, linked through node.next
	far   []int32 // binary min-heap over (at, seq) of nodes past the horizon
	cur   []event // the drained bucket in (at, seq) order; cur[pos:] pend
	pos   int
	sec   int64 // the clock: the bucket cur holds
	n     int   // pending events
	// inRing counts the events in ring slots. ring holds each slot's
	// list head, linked through node.next in no particular order.
	inRing int
	ring   [ringBuckets]int32
}

type node struct {
	event
	next int32
}

// bucketCapacity is cur's initial capacity. The busiest bucket of a day
// holds 37 events at city scale 0.25 and 106 at full scale.
const bucketCapacity = 128

// newEventQueue returns an empty queue whose clock stands just before the
// bucket of start (Unix nanoseconds), so that every event at or after start
// goes to the ring or the far heap. Its slab and far heap hold capacity
// events before they grow.
func newEventQueue(capacity int, start int64) *eventQueue {
	return &eventQueue{
		nodes: make([]node, 1, capacity+1),
		far:   make([]int32, 0, capacity),
		cur:   make([]event, 0, bucketCapacity),
		sec:   bucketOf(start) - 1,
	}
}

// bucketOf maps a time to its bucket's second. Division rounds toward zero,
// so the second before 1970 is two seconds wide; the map stays monotone,
// which is all the order needs.
func bucketOf(at int64) int64 { return at / bucketNanos }

func (q *eventQueue) len() int { return q.n }

// push schedules e.
func (q *eventQueue) push(e event) {
	s := bucketOf(e.at)
	switch {
	case s <= q.sec:
		// Into the bucket being drained, or behind the clock: e takes its
		// (at, seq) place among the events still to fire.
		i, _ := slices.BinarySearchFunc(q.cur[q.pos:], e, cmpEvent)
		q.cur = slices.Insert(q.cur, q.pos+i, e)
	case s-q.sec < ringBuckets:
		i := q.alloc(e)
		slot := &q.ring[s&(ringBuckets-1)]
		q.nodes[i].next = *slot
		*slot = i
		q.inRing++
	default:
		q.pushFar(q.alloc(e))
	}
	q.n++
}

// pop removes and returns the earliest event. Callers must check len > 0.
func (q *eventQueue) pop() event {
	for q.pos == len(q.cur) {
		q.advance()
	}
	e := q.cur[q.pos]
	q.cur[q.pos] = event{} // drop the fn reference so the closure can be collected
	q.pos++
	q.n--
	return e
}

// advance moves the clock one bucket on, or, when the ring is empty, to the
// far heap's earliest bucket, and loads that bucket into cur in (at, seq)
// order. The bucket may be empty.
func (q *eventQueue) advance() {
	q.cur, q.pos = q.cur[:0], 0
	if q.inRing > 0 {
		q.sec++
	} else {
		q.sec = bucketOf(q.nodes[q.far[0]].at)
	}
	slot := &q.ring[q.sec&(ringBuckets-1)]
	for i := *slot; i != 0; {
		next := q.nodes[i].next
		q.cur = append(q.cur, q.nodes[i].event)
		q.release(i)
		q.inRing--
		i = next
	}
	*slot = 0
	for len(q.far) > 0 && bucketOf(q.nodes[q.far[0]].at) <= q.sec {
		i := q.popFar()
		q.cur = append(q.cur, q.nodes[i].event)
		q.release(i)
	}
	slices.SortFunc(q.cur, cmpEvent)
}

// alloc stores e in a free node, growing the slab only when none is free.
func (q *eventQueue) alloc(e event) int32 {
	if i := q.free; i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i] = node{event: e}
		return i
	}
	q.nodes = append(q.nodes, node{event: e})
	return int32(len(q.nodes) - 1)
}

// release returns node i to the free list, dropping its closure.
func (q *eventQueue) release(i int32) {
	q.nodes[i] = node{next: q.free}
	q.free = i
}

func (q *eventQueue) less(i, j int32) bool {
	return cmpEvent(q.nodes[i].event, q.nodes[j].event) < 0
}

// pushFar adds node i to the far heap, sifting it up.
func (q *eventQueue) pushFar(i int32) {
	h := append(q.far, i)
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if !q.less(h[c], h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
	q.far = h
}

// popFar removes and returns the far heap's earliest node.
func (q *eventQueue) popFar() int32 {
	h := q.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(h[r], h[c]) {
			c = r
		}
		if !q.less(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.far = h
	return top
}

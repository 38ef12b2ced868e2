package sim

import (
	"math/rand"
	"testing"
	"time"
)

// referenceHeap is the binary min-heap over (at, seq) that the calendar
// queue replaced. Its sift loops are written out so that events move by
// value. The property test holds eventQueue to its pop order.
type referenceHeap []event

func (h referenceHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push inserts e, sifting it up to its ordered position.
func (h *referenceHeap) push(e event) {
	*h = append(*h, e)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !hh.less(i, parent) {
			break
		}
		hh[i], hh[parent] = hh[parent], hh[i]
		i = parent
	}
}

// pop removes and returns the earliest event. Callers must check len > 0.
func (h *referenceHeap) pop() event {
	hh := *h
	n := len(hh) - 1
	top := hh[0]
	hh[0] = hh[n]
	hh[n] = event{}
	*h = hh[:n]
	hh = hh[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && hh.less(r, c) {
			c = r
		}
		if !hh.less(c, i) {
			break
		}
		hh[i], hh[c] = hh[c], hh[i]
		i = c
	}
	return top
}

// queueCoverage tallies the situations the property test must reach.
type queueCoverage struct {
	ties        int   // pops whose time equals the previous pop's
	intoDrained int   // pushes into the bucket being drained, with events pending there
	behindClock int   // pushes into a bucket before the clock's
	pastHorizon int   // pushes past the ring's horizon
	ringEmpty   int   // pops that find the ring empty while far events wait
	wraps       int64 // the most ring turns the clock made from the start
}

// queuePair drives an eventQueue and a referenceHeap with the same pushes
// and pops and fails at the first pop where they disagree.
type queuePair struct {
	t     *testing.T
	q     *eventQueue
	ref   referenceHeap
	seq   uint64
	clock int64 // the time of the last pop
	start int64
	cov   *queueCoverage
}

func newQueuePair(t *testing.T, start int64, cov *queueCoverage) *queuePair {
	// A slab of 8 nodes grows many times over: growth must keep every node.
	return &queuePair{t: t, q: newEventQueue(8, start), clock: start, start: start, cov: cov}
}

func (p *queuePair) push(at int64) {
	s := bucketOf(at)
	switch {
	case s == p.q.sec && p.q.pos < len(p.q.cur):
		p.cov.intoDrained++
	case s < p.q.sec:
		p.cov.behindClock++
	case s-p.q.sec >= ringBuckets:
		p.cov.pastHorizon++
	}
	p.seq++
	p.q.push(event{at: at, seq: p.seq})
	p.ref.push(event{at: at, seq: p.seq})
}

func (p *queuePair) pop() bool {
	p.t.Helper()
	if p.q.len() != len(p.ref) {
		p.t.Fatalf("queue holds %d events, reference %d", p.q.len(), len(p.ref))
	}
	if len(p.ref) == 0 {
		return false
	}
	if p.q.pos == len(p.q.cur) && p.q.inRing == 0 && len(p.q.far) > 0 {
		p.cov.ringEmpty++
	}
	got, want := p.q.pop(), p.ref.pop()
	if got.at != want.at || got.seq != want.seq {
		p.t.Fatalf("pop %d: queue gave (at %d, seq %d), reference (at %d, seq %d)",
			p.seq, got.at, got.seq, want.at, want.seq)
	}
	if got.at == p.clock {
		p.cov.ties++
	}
	p.clock = got.at
	if w := (bucketOf(p.clock) - bucketOf(p.start)) / ringBuckets; w > p.cov.wraps {
		p.cov.wraps = w
	}
	return true
}

func (p *queuePair) drain() {
	for p.pop() {
	}
}

// TestEventQueueMatchesReferenceHeap drives the calendar queue and the
// binary heap it replaced with random interleavings of pushes and pops and
// requires identical pop sequences. The interleavings reach equal times,
// pushes into the bucket being drained and behind the clock, pushes past
// the ring's horizon and onto its edge, a ring that empties while far
// events wait, and spans of days that wrap the ring many times.
func TestEventQueueMatchesReferenceHeap(t *testing.T) {
	sec := int64(time.Second)
	start := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC).UnixNano()
	cov := &queueCoverage{}
	rng := rand.New(rand.NewSource(19))

	// pushAt draws the time of a push relative to the clock (the last pop).
	pushAt := func(p *queuePair, recent []int64) int64 {
		c := p.clock
		switch u := rng.Intn(100); {
		case u < 15 && len(recent) > 0: // an equal time
			return recent[rng.Intn(len(recent))]
		case u < 30: // the clock's own bucket, on either side of the clock
			return c - c%sec + rng.Int63n(sec)
		case u < 40: // behind the clock, up to three ring turns back
			return c - rng.Int63n(3*ringBuckets*sec)
		case u < 75: // within the ring
			return c + rng.Int63n(ringBuckets*sec)
		case u < 90: // past the horizon, up to three days on
			return c + ringBuckets*sec + rng.Int63n(3*24*3600*sec)
		default: // on the horizon's edge
			edge := (p.q.sec + ringBuckets + int64(rng.Intn(3)) - 1) * sec
			return edge + []int64{0, 1, sec - 1}[rng.Intn(3)]
		}
	}

	// A later scenario does not run once one fails: a queue that lost an
	// event can spin forever looking for it. The day-shaped load runs first
	// because it puts near and far events into the same buckets, so a
	// queue that merges far events late fails there instead of spinning.
	ok := t.Run("simulated-days", func(t *testing.T) {
		// A day-shaped load: each popped event schedules one or two more,
		// mostly seconds to minutes ahead, sometimes hours ahead, at times
		// rounded to whole seconds now and then so that ties are common.
		p := newQueuePair(t, start, cov)
		for i := 0; i < 500; i++ {
			p.push(start + rng.Int63n(120*sec))
		}
		for pops := 0; pops < 200000 && p.pop(); pops++ {
			if p.clock-start > 5*24*3600*sec {
				continue
			}
			for n := 1 + rng.Intn(2); n > 0 && p.q.len() < 600; n-- {
				d := time.Duration(rng.ExpFloat64() * 90 * float64(time.Second))
				if rng.Intn(50) == 0 {
					d = time.Duration(rng.Int63n(int64(18 * time.Hour)))
				}
				at := p.clock + int64(d)
				if rng.Intn(5) == 0 {
					at -= at % sec
				}
				p.push(at)
			}
		}
		p.drain()
	}) && t.Run("random-interleavings", func(t *testing.T) {
		for round := 0; round < 20; round++ {
			p := newQueuePair(t, start, cov)
			var recent []int64
			for op := 0; op < 5000; op++ {
				if rng.Float64() < 0.55 {
					at := pushAt(p, recent)
					p.push(at)
					if recent = append(recent, at); len(recent) > 16 {
						recent = recent[1:]
					}
				} else {
					p.pop()
				}
			}
			p.drain()
		}
	}) && t.Run("ring-empties-while-far-events-wait", func(t *testing.T) {
		p := newQueuePair(t, start, cov)
		for round := 0; round < 50; round++ {
			for i := 0; i < 100; i++ { // hours to days past the horizon
				p.push(p.clock + ringBuckets*sec + rng.Int63n(4*24*3600*sec))
			}
			for i := 0; i < 100; i++ {
				p.push(p.clock + rng.Int63n(ringBuckets*sec))
			}
			// Pop until the ring has emptied and the clock has jumped into
			// the far events a few times, pushing near the clock now and
			// then.
			for i := 0; i < 160 && p.pop(); i++ {
				if rng.Intn(4) == 0 {
					p.push(p.clock + rng.Int63n(2*sec))
				}
			}
		}
		p.drain()
	})
	if !ok {
		return
	}
	t.Logf("coverage: %+v", *cov)
	if cov.ties == 0 || cov.intoDrained == 0 || cov.behindClock == 0 ||
		cov.pastHorizon == 0 || cov.ringEmpty == 0 || cov.wraps < 2 {
		t.Fatalf("the interleavings missed a case: %+v", *cov)
	}
}

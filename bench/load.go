package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/ingest"
)

// The load generator is open-loop: every operation has a due time fixed
// before the run starts, and its latency is measured from that due time,
// so a stalled server (or generator) charges the wait to every operation
// it delayed instead of silently sending fewer. Each schedule runs on one
// connection, one operation at a time, and the process opens at most
// nproc connections in all.

// sample is one operation's outcome.
type sample struct {
	lat  float64 // ms from due time to the end of the response; inf when it failed
	late float64 // ms the generator sent after the connection was free and the op due
}

// client is the generator's HTTP side: at most conns connections to base.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

// get fetches path and returns the body; ok is false on a transport error
// or a non-200 status.
func (c *client) get(path string) ([]byte, bool) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, err == nil && resp.StatusCode == http.StatusOK
}

// fetch is get for a read sample: the body is read and dropped.
func (c *client) fetch(path string) bool {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

// getJSON decodes the JSON body of path into v.
func (c *client) getJSON(path string, v any) error {
	body, ok := c.get(path)
	if !ok {
		return fmt.Errorf("GET %s failed", path)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// post sends body to path and reports a 200 with the body fully read.
func (c *client) post(path, contentType string, body []byte) bool {
	resp, err := c.http.Post(c.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

// postBatch POSTs one binary-encoded /ingest batch.
func (c *client) postBatch(b batch) bool {
	return c.post("/ingest", ingest.ContentTypeBinary, b.body)
}

// close drops the idle connections.
func (c *client) close() { c.http.CloseIdleConnections() }

// schedule is one connection's worth of open-loop operations.
type schedule struct {
	n   int
	due func(i int) time.Duration // from the window start
	do  func(i int) bool          // runs op i; false when it failed
	// idle, when set, runs before each wait for the next due time and may
	// send its own request on the connection; it reports whether it did.
	idle func() bool
}

// run executes the schedule from start and returns one sample per
// operation it sent; it stops early when ctx ends.
func (s schedule) run(ctx context.Context, start time.Time) []sample {
	out := make([]sample, 0, s.n)
	free := start // when the connection last became free
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; i < s.n; i++ {
		at := start.Add(s.due(i))
		if s.idle != nil && s.idle() {
			free = time.Now()
		}
		if !sleepUntil(ctx, timer, at) {
			return out
		}
		sent := time.Now()
		ready := at
		if free.After(ready) {
			ready = free
		}
		ok := s.do(i)
		end := time.Now()
		free = end
		smp := sample{lat: ms(end.Sub(at)), late: max(0, ms(sent.Sub(ready)))}
		if !ok {
			smp.lat = inf
		}
		out = append(out, smp)
	}
	return out
}

// lateness gathers how late the generator sent each operation of the
// given schedules, in ms.
func lateness(scheds ...[]sample) []float64 {
	var late []float64
	for _, ss := range scheds {
		for _, s := range ss {
			late = append(late, s.late)
		}
	}
	return late
}

// checkLate flags a run whose generator sent more than maxLateP99 late at
// p99: its latencies would then measure the generator.
func checkLate(late []float64) error {
	if p := quantile(late, 0.99); p > maxLateP99 {
		return fmt.Errorf("the generator sent %.2fms late at p99 (limit %gms): its latencies measure the generator too", p, maxLateP99)
	}
	return nil
}

// sleepUntil waits until t and reports false if ctx ended first. The Go
// timer wakes through the network poller, whose timeout is whole
// milliseconds, so a sub-millisecond wait can oversleep by up to 1ms; the
// last stretch is a nanosleep system call instead, which sleeps to tens of
// microseconds without spinning a core the server needs.
func sleepUntil(ctx context.Context, timer *time.Timer, t time.Time) bool {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		timer.Reset(d)
		select {
		case <-ctx.Done():
			return false
		case <-timer.C:
		}
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens the wait
	}
	return ctx.Err() == nil
}

// prober measures freshness while a feed runs: once the batch that lets a
// slot close was due, it polls /context for that slot between the reads
// of its connection until every cell reads final, and records the time
// from that batch's due time. Its requests are not read samples.
type prober struct {
	c     *client
	grid  core.SlotGrid
	start time.Time
	due   []time.Duration // per slot: due time of its closing batch; -1 if none

	next   int // lowest slot not yet seen final
	last   time.Time
	fresh  []float64 // ms, one per slot seen final
	probes int
}

// probeEvery is the prober's minimum gap between probes: freshness is
// resolved to about a millisecond while the read connection stays mostly
// the reads'.
const probeEvery = time.Millisecond

func newProber(c *client, grid core.SlotGrid, plan feedPlan, start time.Time) *prober {
	p := &prober{c: c, grid: grid, start: start}
	p.due = make([]time.Duration, len(plan.closing))
	for k, b := range plan.closing {
		p.due[k] = -1
		if b >= 0 {
			p.due[k] = plan.batches[b].due
		}
	}
	return p
}

// idle is the schedule hook: it probes the lowest slot not yet seen final
// once that slot's closing batch is due, at most once per probeEvery.
func (p *prober) idle() bool {
	now := time.Now()
	if p.next >= len(p.due) || p.due[p.next] < 0 || now.Before(p.start.Add(p.due[p.next])) || now.Sub(p.last) < probeEvery {
		return false
	}
	p.last = now
	from, _ := p.grid.Bounds(p.next)
	body, ok := p.c.get("/context?at=" + queryTime(from.Add(p.grid.SlotLen/2)))
	end := time.Now()
	p.probes++
	if ok && allFinal(body) {
		p.fresh = append(p.fresh, ms(end.Sub(p.start.Add(p.due[p.next]))))
		p.next++
	}
	return true
}

// drain keeps probing after the reads end until every closable slot was
// seen final or the deadline passes.
func (p *prober) drain(ctx context.Context, deadline time.Time) {
	for ctx.Err() == nil && time.Now().Before(deadline) {
		if p.next >= len(p.due) || p.due[p.next] < 0 {
			return
		}
		if !p.idle() {
			time.Sleep(probeEvery)
		}
	}
}

// allFinal reports whether a /context body has cells and all are final.
func allFinal(body []byte) bool {
	return bytes.Contains(body, []byte(`"final":true`)) && !bytes.Contains(body, []byte(`"final":false`))
}

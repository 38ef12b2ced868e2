// Command bench is the benchmark of record: it runs one named workload
// against the system built from this checkout and prints every metric by
// name, with its unit, as one JSON object on the last line of its output.
//
//	bash bench/run.sh --workload read_steady --seed 1 --seconds 15 --trace 0   # end-to-end metrics
//	bash bench/run.sh --workload read_steady --seed 1 --seconds 15 --trace 1   # per-layer metrics
//
// It runs from the repository root and keeps everything it writes under
// .bench_build.
// The served workloads build cmd/queued, start it as a child process and
// drive it with an open-loop load generator; the server is sampled only
// from outside (/proc/<pid> and /metrics deltas). pipeline_day runs the
// batch pipeline in this process. Every run checks the system's outputs
// against an in-process reference and reports "correct". With -trace 1 the
// run also replays its operations in process through the layers' public
// functions, records a span around each call (written to
// .bench_build/trace/<workload>.spans.jsonl), and reports the per-layer
// metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration // the timed window
	trace    bool
	root     string // repository root holding cmd/queued
	work     string // scratch space: binaries, stores, logs, spans
}

// tracePath is where a traced run writes its spans.
func (o options) tracePath() string {
	return filepath.Join(o.work, "trace", o.workload+".spans.jsonl")
}

// report is what a workload measured.
type report struct {
	attempted, failed int
	e2e, layer        map[string]float64
	errs              []error // failed correctness checks
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed correctness check.
func (r *report) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options, binaries) (*report, error){
	"pipeline_day": runPipelineDay,
	"read_steady":  served(readSteady),
	"feed_mixed":   served(feedMixed),
	"analytics":    served(analytics),
}

// binaries are the repository commands a run needs.
type binaries struct{ queued, mdtgen string }

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	o := options{root: ".", work: ".bench_build"}
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "pipeline_day | read_steady | feed_mixed | analytics")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 15, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: also run the traced in-process copy and print the per-layer metrics")
	flag.Parse()
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	run := workloads[o.workload]
	if run == nil || seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The generator gets one P per core (GOMAXPROCS ignores container
	// quotas before Go 1.25), matching its connection cap.
	runtime.GOMAXPROCS(runtime.NumCPU())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := execute(ctx, o, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		stop()
		os.Exit(1)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %v\n", o.workload, e)
	}
	res, err := rep.result(o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		stop()
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		stop()
		os.Exit(1)
	}
}

// execute builds the system and runs the workload.
func execute(ctx context.Context, o options, run func(context.Context, options, binaries) (*report, error)) (*report, error) {
	binDir := filepath.Join(o.work, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	var bins binaries
	var err error
	if bins.queued, err = build(ctx, o.root, binDir, "./cmd/queued"); err != nil {
		return nil, err
	}
	if bins.mdtgen, err = build(ctx, o.root, binDir, "./cmd/mdtgen"); err != nil {
		return nil, err
	}
	return run(ctx, o, bins)
}

// result assembles the printed result: the end-to-end metrics, or with
// traced the per-layer ones (a layer the workload does not exercise
// reports 0).
func (rep *report) result(traced bool) (*resultJSON, error) {
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layer
	}
	res := &resultJSON{
		Correct:   len(rep.errs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return res, nil
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

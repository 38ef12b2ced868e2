package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d, want 5", c.Value())
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge %d, want 7", g.Value())
	}
}

// TestIdempotentRegistration: the same (name, labels) returns the same
// collector; different labels return distinct series under one family.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", Label{"shard", "0"})
	b := r.Counter("x_total", "x", Label{"shard", "0"})
	if a != b {
		t.Fatal("same (name, labels) gave two collectors")
	}
	c := r.Counter("x_total", "x", Label{"shard", "1"})
	if a == c {
		t.Fatal("different labels shared a collector")
	}
	// Label order must not matter.
	d := r.Gauge("y", "y", Label{"a", "1"}, Label{"b", "2"})
	e := r.Gauge("y", "y", Label{"b", "2"}, Label{"a", "1"})
	if d != e {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "z")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("z_total", "z")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.605) > 1e-9 {
		t.Fatalf("sum %g, want 5.605", h.Sum())
	}
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "the a counter", Label{"shard", "0"}).Add(3)
	r.Gauge("b", "the b gauge").Set(-2)
	r.GaugeFunc("c", "computed", func() float64 { return 1.5 })
	r.Counter("esc_total", "esc", Label{"v", "q\"\\\nx"}).Inc()
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# HELP a_total the a counter\n# TYPE a_total counter\n" + `a_total{shard="0"} 3`,
		"# TYPE b gauge\nb -2",
		"# TYPE c gauge\nc 1.5",
		`esc_total{v="q\"\\\nx"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "h").Inc()
	w := httptest.NewRecorder()
	r.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(w.Body.String(), "h_total 1") {
		t.Fatalf("body: %s", w.Body.String())
	}
	w = httptest.NewRecorder()
	r.ServeHTTP(w, httptest.NewRequest("POST", "/metrics", nil))
	if w.Code != 405 {
		t.Fatalf("POST status %d, want 405", w.Code)
	}
}

// TestConcurrentUse hammers one registry from many goroutines — the -race
// gate in scripts/check.sh verifies the lock discipline.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("cc_total", "cc", Label{"g", string(rune('0' + g%4))})
			h := r.Histogram("ch_seconds", "ch", DefBuckets)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-4)
				r.Gauge("cg", "cg").Set(int64(i))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			var out strings.Builder
			if err := r.WritePrometheus(&out); err != nil {
				t.Error(err)
			}
		}
		close(done)
	}()
	wg.Wait()
	<-done
	var total int64
	for g := 0; g < 4; g++ {
		total += r.Counter("cc_total", "cc", Label{"g", string(rune('0' + g))}).Value()
	}
	if total != 8000 {
		t.Fatalf("counters lost increments: %d, want 8000", total)
	}
	if got := r.Histogram("ch_seconds", "ch", DefBuckets).Count(); got != 8000 {
		t.Fatalf("histogram count %d, want 8000", got)
	}
}

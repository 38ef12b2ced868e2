package monitor

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 5, 12, 0, 0, 0, time.UTC)

func newCounter() *AreaCounter { return NewAreaCounter("lucky-plaza") }

func TestCountAt(t *testing.T) {
	c := newCounter()
	if c.CountAt(t0) != 0 {
		t.Error("count before any observation not 0")
	}
	mustObserve(t, c, t0, 2)
	mustObserve(t, c, t0.Add(10*time.Minute), 5)
	mustObserve(t, c, t0.Add(20*time.Minute), 1)
	cases := []struct {
		at   time.Time
		want int
	}{
		{t0.Add(-time.Second), 0},
		{t0, 2},
		{t0.Add(5 * time.Minute), 2},
		{t0.Add(10 * time.Minute), 5},
		{t0.Add(15 * time.Minute), 5},
		{t0.Add(25 * time.Minute), 1},
	}
	for _, cse := range cases {
		if got := c.CountAt(cse.at); got != cse.want {
			t.Errorf("CountAt(%v) = %d, want %d", cse.at, got, cse.want)
		}
	}
}

func mustObserve(t *testing.T, c *AreaCounter, at time.Time, n int) {
	t.Helper()
	if err := c.Observe(at, n); err != nil {
		t.Fatal(err)
	}
}

func TestObserveOutOfOrder(t *testing.T) {
	c := newCounter()
	mustObserve(t, c, t0, 1)
	if err := c.Observe(t0.Add(-time.Second), 2); err == nil {
		t.Fatal("out-of-order observation accepted")
	}
	// Equal timestamps are fine (two changes in the same second).
	if err := c.Observe(t0, 3); err != nil {
		t.Fatalf("same-time observation rejected: %v", err)
	}
}

func TestAverage(t *testing.T) {
	c := newCounter()
	mustObserve(t, c, t0, 4)
	mustObserve(t, c, t0.Add(10*time.Minute), 0)
	// Over [t0, t0+20m): 4 for half, 0 for half => 2.0.
	got := c.Average(t0, t0.Add(20*time.Minute))
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("Average = %g, want 2", got)
	}
	// Window starting mid-log picks up the in-effect count.
	got = c.Average(t0.Add(5*time.Minute), t0.Add(10*time.Minute))
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("mid-window Average = %g, want 4", got)
	}
	if c.Average(t0, t0) != 0 {
		t.Error("empty window average not 0")
	}
}

func TestMinuteSeries(t *testing.T) {
	c := newCounter()
	mustObserve(t, c, t0.Add(90*time.Second), 7)
	s := c.MinuteSeries(t0, t0.Add(4*time.Minute))
	if len(s) != 4 {
		t.Fatalf("series length %d, want 4", len(s))
	}
	wantCounts := []int{0, 0, 7, 7}
	for i, w := range wantCounts {
		if s[i].Count != w {
			t.Errorf("minute %d count = %d, want %d", i, s[i].Count, w)
		}
	}
}

func TestServiceEndpoints(t *testing.T) {
	c := newCounter()
	mustObserve(t, c, t0, 3)
	svc := NewService()
	svc.Add(c)
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// List monitors.
	var names []string
	getJSON(t, ts.URL+"/monitors", &names)
	if len(names) != 1 || names[0] != "lucky-plaza" {
		t.Fatalf("monitor list = %v", names)
	}

	// Count at a time.
	var sample Sample
	getJSON(t, ts.URL+"/monitors/lucky-plaza/count?at="+t0.Add(time.Minute).Format(time.RFC3339), &sample)
	if sample.Count != 3 {
		t.Fatalf("count endpoint = %d, want 3", sample.Count)
	}

	// Series.
	var series []Sample
	url := ts.URL + "/monitors/lucky-plaza/series?from=" + t0.Format(time.RFC3339) +
		"&to=" + t0.Add(3*time.Minute).Format(time.RFC3339)
	getJSON(t, url, &series)
	if len(series) != 3 || series[0].Count != 3 {
		t.Fatalf("series endpoint = %v", series)
	}
}

func TestServiceErrors(t *testing.T) {
	svc := NewService()
	svc.Add(newCounter())
	ts := httptest.NewServer(svc)
	defer ts.Close()

	for _, cse := range []struct {
		method, url string
		wantStatus  int
	}{
		{"POST", "/monitors", http.StatusMethodNotAllowed},
		{"GET", "/monitors/nope/count", http.StatusNotFound},
		{"GET", "/monitors/lucky-plaza/unknown", http.StatusNotFound},
		{"GET", "/monitors/lucky-plaza/count?at=not-a-time", http.StatusBadRequest},
		{"GET", "/monitors/lucky-plaza/series?from=x&to=y", http.StatusBadRequest},
		{"GET", "/monitors/lucky-plaza", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(cse.method, ts.URL+cse.url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != cse.wantStatus {
			t.Errorf("%s %s -> %d, want %d", cse.method, cse.url, resp.StatusCode, cse.wantStatus)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

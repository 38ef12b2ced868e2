package main

import (
	"os"
	"strings"
	"testing"
)

// testdata/metrics-{0,1}.prom are two /metrics scrapes of a live queued
// (scale 0.05, two shards, WAL and history on): before and after a
// simulated day was fed to /ingest and a few reads were served.
func readScrape(t *testing.T, name string) scrape {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestParsePromScrape(t *testing.T) {
	after := readScrape(t, "metrics-1.prom")
	if n := after.total("ingest_accepted_total"); n != after.total("ingest_accepted_total", "shard", "0")+after.total("ingest_accepted_total", "shard", "1") || n == 0 {
		t.Errorf("ingest_accepted_total over shards = %v, want the positive sum of both shards", n)
	}
	if got := after.total("ingest_http_requests_total", "code", "200"); got != 19 {
		t.Errorf("ingest_http_requests_total{code=200} = %v, want 19", got)
	}
	h := after.hist("ingest_process_seconds")
	if h.count == 0 || h.sum <= 0 {
		t.Fatalf("ingest_process_seconds: count %v sum %v", h.count, h.sum)
	}
	if last := h.buckets[len(h.buckets)-1]; last.count != h.count {
		t.Errorf("+Inf bucket %v != count %v", last.count, h.count)
	}
	for i := 1; i < len(h.buckets); i++ {
		if h.buckets[i].count < h.buckets[i-1].count || h.buckets[i].le <= h.buckets[i-1].le {
			t.Fatalf("buckets not cumulative and ascending: %+v", h.buckets)
		}
	}
	// A histogram selected by label folds only that series.
	series := after.hist("history_query_seconds", "query", "series")
	all := after.hist("history_query_seconds")
	if series.count > all.count {
		t.Errorf("one query kind counted %v, all kinds %v", series.count, all.count)
	}
}

func TestPromDelta(t *testing.T) {
	before, after := readScrape(t, "metrics-0.prom"), readScrape(t, "metrics-1.prom")
	d := delta(before, after)
	fed := d.total("ingest_accepted_total") + d.total("ingest_rejected_total")
	if fed != 9000 {
		t.Errorf("records that reached a shard between the scrapes = %v, want 9000", fed)
	}
	if h := d.hist("ingest_http_decode_seconds"); h.count != 18 {
		t.Errorf("decode observations between the scrapes = %v, want 18", h.count)
	}
	if d.total("queued_cache_hits_total")+d.total("queued_cache_misses_total") == 0 {
		t.Error("no cache lookups between the scrapes")
	}
	if z := delta(after, after); z.total("ingest_accepted_total") != 0 || z.hist("ingest_process_seconds").count != 0 {
		t.Error("a scrape minus itself is not zero")
	}
}

func TestParsePromLine(t *testing.T) {
	sc, err := parseProm(strings.NewReader(`# HELP x_total A counter.
# TYPE x_total counter
x_total{path="/a b",q="say \"hi\"\n"} 3
y 1.5e-3
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.total("x_total", "path", "/a b", "q", "say \"hi\"\n"); got != 3 {
		t.Errorf("escaped labels: got %v", got)
	}
	if got := sc.total("y"); got != 0.0015 {
		t.Errorf("y = %v", got)
	}
	for _, bad := range []string{"novalue", `z{a="1"`, `z{a=1} 2`, "z notanumber"} {
		if _, err := parseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

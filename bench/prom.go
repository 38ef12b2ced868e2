package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed /metrics exposition, keyed by the series as exposed
// (metric name plus its rendered label set).
type scrape map[string]promSample

// parseProm reads the Prometheus text format: comment and blank lines are
// skipped, every other line is `name[{labels}] value [timestamp]`.
func parseProm(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		key, s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("prom line %d: %w", ln, err)
		}
		out[key] = s
	}
	return out, sc.Err()
}

// parsePromLine splits one sample line into its series key and sample.
func parsePromLine(line string) (string, promSample, error) {
	s := promSample{labels: map[string]string{}}
	var key, rest string
	if i := strings.IndexAny(line, "{ "); i < 0 {
		return "", s, fmt.Errorf("no value in %q", line)
	} else if line[i] == '{' {
		s.name = line[:i]
		end, err := parseLabels(line[i+1:], s.labels)
		if err != nil {
			return "", s, err
		}
		key, rest = line[:i+1+end+1], line[i+1+end+1:]
	} else {
		s.name, key, rest = line[:i], line[:i], line[i:]
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return "", s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return "", s, fmt.Errorf("value in %q: %w", line, err)
	}
	s.value = v
	return key, s, nil
}

// parseLabels reads `a="b",c="d"}` into dst and returns the index of the
// closing brace. Values use the text-format escapes \\, \" and \n.
func parseLabels(src string, dst map[string]string) (int, error) {
	i := 0
	for {
		for i < len(src) && (src[i] == ',' || src[i] == ' ') {
			i++
		}
		if i < len(src) && src[i] == '}' {
			return i, nil
		}
		eq := strings.IndexByte(src[i:], '=')
		if eq < 0 || i+eq+1 >= len(src) || src[i+eq+1] != '"' {
			return 0, fmt.Errorf("bad label set %q", src)
		}
		name := src[i : i+eq]
		i += eq + 2
		var val strings.Builder
		for ; i < len(src) && src[i] != '"'; i++ {
			if src[i] == '\\' && i+1 < len(src) {
				i++
				switch src[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(src[i])
				}
				continue
			}
			val.WriteByte(src[i])
		}
		if i >= len(src) {
			return 0, fmt.Errorf("unterminated label value in %q", src)
		}
		dst[name] = val.String()
		i++ // closing quote
	}
}

// fetchProm scrapes url.
func fetchProm(c *http.Client, url string) (scrape, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}

// delta returns after minus before for every series of after (a series
// absent from before counts from zero). Meaningful for counters and the
// _sum, _count and _bucket series of histograms.
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for k, s := range after {
		d := s
		d.value -= before[k].value
		out[k] = d
	}
	return out
}

// total sums every series named name whose labels include each of the
// name=value pairs in match.
func (sc scrape) total(name string, match ...string) float64 {
	sum := 0.0
	for _, s := range sc {
		if s.name == name && s.matches(match) {
			sum += s.value
		}
	}
	return sum
}

func (s promSample) matches(match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if s.labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le    float64
	count float64
}

// histogram is a histogram family folded over the matching label sets.
type histogram struct {
	sum, count float64
	buckets    []bucket // ascending le, cumulative, +Inf last
}

// hist folds the _sum, _count and _bucket series of histogram name whose
// labels match.
func (sc scrape) hist(name string, match ...string) histogram {
	h := histogram{sum: sc.total(name+"_sum", match...), count: sc.total(name+"_count", match...)}
	byLE := map[float64]float64{}
	for _, s := range sc {
		if s.name != name+"_bucket" || !s.matches(match) {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		byLE[le] += s.value
	}
	for le, c := range byLE {
		h.buckets = append(h.buckets, bucket{le, c})
	}
	sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
	return h
}

// mean is sum/count; 0 when nothing was observed.
func (h histogram) mean() float64 { return ratio(h.sum, h.count) }

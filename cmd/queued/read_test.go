package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/obs"
)

// readMode is one wiring of the single /spots + /context read path: the
// server under test and the locked per-request baseline over the same
// state.
type readMode struct {
	name   string
	srv    *server
	locked *lockedServer
}

// readModes stands up the read path both ways over one analyzed day: batch
// (labels from the view's final snapshot) and live (labels from the ingest
// service, fed the whole day and flushed).
func readModes(t *testing.T) (*serveEnv, []readMode) {
	t.Helper()
	env := newServeEnv(t, false)
	env.feedDay(t)
	batch := newServer(obs.NewRegistry())
	batch.view.Store(env.srv.view.Load())
	return env, []readMode{
		{"batch", batch, &lockedServer{city: env.locked.city, res: env.locked.res, grid: env.grid}},
		{"live", env.srv, env.locked},
	}
}

// get serves one request through a fresh mux with the server's routes.
func (m readMode) get(url string) *httptest.ResponseRecorder {
	mux := http.NewServeMux()
	registerServe(mux, m.srv)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	return w
}

// TestReadPathBothModes runs the same /spots and /context assertions
// against a batch and a live server: every slot bucket (and the default
// instant) matches the locked baseline byte for byte, on the render and
// on the cached pass; /spots?live=1 without live discovery equals /spots;
// a bad timestamp is a 400 and a server with no view yet a 503.
func TestReadPathBothModes(t *testing.T) {
	env, modes := readModes(t)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for _, ep := range []struct {
				path   string
				locked http.HandlerFunc
			}{
				{"/spots", m.locked.handleSpots},
				{"/context", m.locked.handleContext},
			} {
				urls := append(env.slotURLs(ep.path), ep.path)
				for pass := 0; pass < 2; pass++ {
					for _, url := range urls {
						got := m.get(url)
						want := httptest.NewRecorder()
						ep.locked(want, httptest.NewRequest("GET", url, nil))
						if got.Code != 200 || want.Code != 200 {
							t.Fatalf("pass %d %s: status %d, baseline %d", pass, url, got.Code, want.Code)
						}
						if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
							t.Fatalf("pass %d %s: body differs from the locked baseline\ngot:  %s\nwant: %s",
								pass, url, got.Body.String(), want.Body.String())
						}
					}
				}
				if w := m.get(ep.path + "?at=yesterday"); w.Code != http.StatusBadRequest {
					t.Errorf("%s bad at: status %d, want 400", ep.path, w.Code)
				}
				notReady := readMode{srv: newServer(obs.NewRegistry())}
				if w := notReady.get(ep.path); w.Code != http.StatusServiceUnavailable {
					t.Errorf("%s before any view: status %d, want 503", ep.path, w.Code)
				}
			}
			for _, url := range env.slotURLs("/spots") {
				plain, live := m.get(url), m.get(url+"&live=1")
				if !bytes.Equal(plain.Body.Bytes(), live.Body.Bytes()) {
					t.Fatalf("%s: live=1 body differs without live discovery\nplain: %s\nlive:  %s",
						url, plain.Body.String(), live.Body.String())
				}
			}
		})
	}
}

// TestBatchContext: batch-mode /context serves every in-grid slot as the
// analysis computed it — res.Cell's label and features, final — and an
// out-of-grid time as Unidentified with zero features, not final.
func TestBatchContext(t *testing.T) {
	env, modes := readModes(t)
	batch := modes[0]
	res := env.srv.result()
	decode := func(url string) []contextJSON {
		t.Helper()
		w := batch.get(url)
		if w.Code != 200 {
			t.Fatalf("%s: status %d", url, w.Code)
		}
		var out []contextJSON
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if len(out) != len(res.Spots) {
			t.Fatalf("%s: %d cells, want %d", url, len(out), len(res.Spots))
		}
		return out
	}
	urls := env.slotURLs("/context")
	for j, url := range urls[:env.grid.Slots] {
		for i, c := range decode(url) {
			f, l := res.Cell(i, j)
			if want := cellJSON(i, l, f, true); c != want {
				t.Fatalf("slot %d spot %d: served %+v, want %+v", j, i, c, want)
			}
		}
	}
	after := env.grid.Start.Add(time.Duration(env.grid.Slots)*env.grid.SlotLen + time.Minute)
	for _, url := range []string{urls[env.grid.Slots], "/context?at=" + after.UTC().Format(time.RFC3339)} {
		for i, c := range decode(url) {
			if want := cellJSON(i, core.Unidentified, core.SlotFeatures{}, false); c != want {
				t.Fatalf("%s spot %d: served %+v, want %+v", url, i, c, want)
			}
		}
	}
	if w := batch.get("/context?at=noon"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad at: status %d, want 400", w.Code)
	}
}

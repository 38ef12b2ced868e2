package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/obs"
	"taxiqueue/internal/sim"
)

// asMainEnv, set in a child's environment, makes the test binary run as
// queued itself: TestMain calls main with the child's arguments.
const asMainEnv = "QUEUED_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The child queued's bootstrap: a small city, so start-up stays short even
// under the race detector.
const (
	childSeed   = 1
	childScale  = 0.05
	childMinPts = 25
)

// TestSIGTERMDrainsAndCloses sends SIGTERM to a running queued, in batch
// mode and in live mode with a WAL, while clients loop on /spots. Every
// response that started ends 200 with a whole body, the process exits 0
// within drainTimeout, and the history directory reopens with no
// truncation.
func TestSIGTERMDrainsAndCloses(t *testing.T) {
	srv := newServer(obs.NewRegistry())
	if err := srv.recompute(childSeed, childScale, childMinPts); err != nil {
		t.Fatal(err)
	}
	res := srv.result()
	for _, live := range []bool{false, true} {
		name := "batch"
		if live {
			name = "live"
		}
		t.Run(name, func(t *testing.T) {
			histDir := t.TempDir()
			args := []string{"-addr", "127.0.0.1:0", "-seed", fmt.Sprint(childSeed),
				"-scale", fmt.Sprint(childScale), "-minpts", fmt.Sprint(childMinPts),
				"-history", histDir}
			if live {
				args = append(args, "-live", "-shards", "2", "-wal", t.TempDir())
			}
			q := startQueued(t, args)
			if live {
				q.feedMorning(t)
			}
			q.stopWhileReading(t)

			hist, err := newHistoryStore(histDir, res, obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			defer hist.Close()
			st := hist.Stats()
			if st.Truncations != 0 {
				t.Fatalf("history reopened with %d truncations", st.Truncations)
			}
			if st.Records == 0 {
				t.Fatal("history reopened empty: nothing was recorded before the stop")
			}
		})
	}
}

// childQueued is a queued process started from the test binary.
type childQueued struct {
	cmd     *exec.Cmd
	url     string
	logs    *bytes.Buffer // the child's log; read only after logDone
	logDone chan struct{} // closed once the child's stderr hits EOF
}

// startQueued starts queued with args and waits until it listens.
func startQueued(t *testing.T, args []string) *childQueued {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	q := &childQueued{cmd: cmd, logs: new(bytes.Buffer), logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(q.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			q.logs.WriteString(line + "\n")
			if _, a, ok := strings.Cut(line, "queued: listening on "); ok {
				addr <- a
			}
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-q.logDone
		cmd.Wait()
	})
	select {
	case a := <-addr:
		q.url = "http://" + a
	case <-q.logDone:
		t.Fatalf("queued exited before listening:\n%s", q.logs)
	case <-time.After(3 * time.Minute):
		t.Fatal("queued did not start listening within 3 minutes")
	}
	return q
}

// feedMorning POSTs the first six hours of the bootstrap day to /ingest,
// so the WAL and the history store have something to close.
func (q *childQueued) feedMorning(t *testing.T) {
	t.Helper()
	out := sim.Run(sim.Config{Seed: childSeed, City: citymap.Generate(childSeed, childScale)})
	day, _ := clean.Compact(out.Records, clean.Config{ValidFrame: citymap.Island})
	cut := out.Config.Start.Add(6 * time.Hour)
	n := 0
	for n < len(day) && day[n].Time.Before(cut) {
		n++
	}
	var body bytes.Buffer
	if err := ingest.EncodeJSONLines(&body, day[:n]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(q.url+"/ingest", ingest.ContentTypeJSONLines, &body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: %d %s", resp.StatusCode, msg)
	}
}

// stopWhileReading loops four clients on /spots, sends SIGTERM once they
// have read 50 bodies, and checks every response that arrived and how the
// process exited.
func (q *childQueued) stopWhileReading(t *testing.T) {
	t.Helper()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	var signalled atomic.Bool
	var ok atomic.Int64
	warm := make(chan struct{})
	var warmOnce sync.Once
	var wg sync.WaitGroup
	defer func() {
		// On a failure before the stop, end the child so the clients
		// return before the test does.
		signalled.Store(true)
		q.cmd.Process.Kill()
		wg.Wait()
	}()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := client.Get(q.url + "/spots")
				if err != nil {
					// Refused or reset before a response started: expected
					// once the server stops accepting, a failure before.
					if !signalled.Load() {
						t.Errorf("GET /spots before the signal: %v", err)
					}
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				var spots []spotJSON
				if resp.StatusCode != http.StatusOK || err != nil || json.Unmarshal(body, &spots) != nil {
					t.Errorf("a started /spots response ended with status %d, %d body bytes, read error %v (signalled %v)",
						resp.StatusCode, len(body), err, signalled.Load())
					return
				}
				if ok.Add(1) == 50 {
					warmOnce.Do(func() { close(warm) })
				}
			}
		}()
	}

	select {
	case <-warm:
	case <-time.After(time.Minute):
		t.Fatal("the clients did not read 50 /spots bodies within a minute")
	}
	signalled.Store(true)
	sent := time.Now()
	if err := q.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-q.logDone:
	case <-time.After(drainTimeout + time.Minute):
		t.Fatal("queued did not exit after SIGTERM")
	}
	err := q.cmd.Wait()
	took := time.Since(sent)
	if err != nil {
		t.Fatalf("queued exited with %v after SIGTERM:\n%s", err, q.logs)
	}
	if took > drainTimeout {
		t.Fatalf("queued took %v to exit after SIGTERM, over the %v drain budget", took, drainTimeout)
	}
	t.Logf("%d /spots bodies read; exited %v after SIGTERM", ok.Load(), took.Round(time.Millisecond))
}

package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

func TestParseProc(t *testing.T) {
	// A command name holding spaces and parentheses must not shift the
	// fields that follow it.
	stat := []byte("4242 (que ued) (x)) S 1 4242 4242 0 -1 4194560 9000 0 0 0 250 75 0 0 20 0 9 0 100 1000000 5000 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	status := []byte("Name:\tqueued\nVmHWM:\t  314592 kB\nVmRSS:\t  200000 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t30\n")
	s, err := parseProc(stat, status)
	if err != nil {
		t.Fatal(err)
	}
	want := procSample{CPU: 3250 * time.Millisecond, HWM: 314592 << 10, Threads: 9}
	if s != want {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	if _, err := parseProc([]byte("4242 queued S 1"), status); err == nil {
		t.Error("stat without a parenthesized command parsed")
	}
}

// TestResetPeak raises this process's peak with a 64 MB buffer, returns
// the buffer to the OS, and checks that the reset drops the peak.
func TestResetPeak(t *testing.T) {
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	before, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(buf)
	buf = nil
	debug.FreeOSMemory()
	if err := resetPeak(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	after, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if after.HWM > before.HWM-32<<20 {
		t.Fatalf("peak %d MB after the reset, %d MB before it", after.HWM>>20, before.HWM>>20)
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if s.HWM <= 0 || s.Threads < 1 {
		t.Fatalf("implausible sample of this process: %+v", s)
	}
}

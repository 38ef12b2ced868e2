package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of the utime/stime fields in /proc/<pid>/stat.
// USER_HZ is 100 on every Linux architecture Go supports; reading it via
// sysconf would need cgo.
const clockTick = 10 * time.Millisecond

// procSample is one outside-in reading of a process: CPU time over all its
// threads from /proc/<pid>/stat, memory and thread count from
// /proc/<pid>/status.
type procSample struct {
	CPU     time.Duration // utime + stime
	HWM     int64         // VmHWM: peak resident set, bytes
	Threads int
}

// readProc samples process pid.
func readProc(pid int) (procSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	return parseProc(stat, status)
}

// resetPeak sets process pid's VmHWM back to its current resident set, so
// a later reading is the peak since the reset.
func resetPeak(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// parseProc decodes the text of /proc/<pid>/stat and /proc/<pid>/status.
func parseProc(stat, status []byte) (procSample, error) {
	var s procSample
	// The command name (field 2) is parenthesized and may itself hold
	// spaces or parentheses, so fields are counted from the last ')'.
	paren := bytes.LastIndexByte(stat, ')')
	if paren < 0 {
		return s, fmt.Errorf("procstat: malformed stat %q", stat)
	}
	fields := strings.Fields(string(stat[paren+1:]))
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return s, fmt.Errorf("procstat: stat has %d fields after the command", len(fields))
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return s, fmt.Errorf("procstat: cpu field %q: %w", f, err)
		}
		ticks += n
	}
	s.CPU = time.Duration(ticks) * clockTick

	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		f := strings.Fields(val)
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			continue
		}
		switch key {
		case "VmHWM":
			s.HWM = n << 10 // reported in kB
		case "Threads":
			s.Threads = int(n)
		}
	}
	if s.HWM == 0 {
		return s, fmt.Errorf("procstat: no VmHWM in status")
	}
	return s, sc.Err()
}

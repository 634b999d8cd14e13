// Package testhost lets a timing test tell a slow program from a busy host.
//
// The wall-clock stack's tests hold it to sub-millisecond ceilings. Those only
// mean something while the test's threads get a CPU when they ask for one;
// beside a compiler or another package's CPU-bound tests they wait
// milliseconds for one and every ceiling is missed whatever the code under
// test does. Linux accounts CPU time per process, so a test can tell the two
// apart: a miss while nothing else ran is the program's, a miss beside a busy
// neighbour is the host's.
package testhost

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tick is the unit of /proc's CPU accounting (USER_HZ, 100 on every Linux).
const tick = 10 * time.Millisecond

// OthersCPU returns the CPU time of every other process the host shows,
// children they have reaped included (utime, stime, cutime and cstime of each
// /proc/<pid>/stat), and false where the host does not say. Only differences
// mean anything: a process that exits unreaped takes its time with it.
func OthersCPU() (time.Duration, bool) {
	procs, err := os.ReadDir("/proc")
	if err != nil {
		return 0, false
	}
	var ticks int64
	seen := false
	for _, p := range procs {
		pid, err := strconv.Atoi(p.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		buf, err := os.ReadFile("/proc/" + p.Name() + "/stat")
		if err != nil {
			continue // gone since the listing
		}
		// The command name may hold spaces; the numbered fields resume after
		// its closing parenthesis, state first (field 3).
		_, rest, ok := strings.Cut(string(buf), ") ")
		f := strings.Fields(rest)
		if !ok || len(f) < 15 {
			continue
		}
		for _, v := range f[11:15] { // fields 14-17
			n, _ := strconv.ParseInt(v, 10, 64)
			ticks += n
		}
		seen = true
	}
	return time.Duration(ticks) * tick, seen
}

// Retry runs try until it returns nil, at most attempts times; try returns
// the ceiling it missed. Host noise only ever adds latency, so one attempt
// inside the ceilings shows what the program can do and the test passes. An
// attempt that misses while other processes used more than tolerate of CPU is
// the host's miss; one that misses without is the program's. If every attempt
// misses, the test fails when most of the attempts were the program's and is
// skipped otherwise: the host was too busy for the measurement to mean
// anything. A host that does not account CPU time this way counts as quiet.
func Retry(t testing.TB, attempts int, tolerate time.Duration, try func() error) {
	t.Helper()
	var last error
	quiet := 0
	for i := 0; i < attempts; i++ {
		before, _ := OthersCPU()
		err := try()
		after, _ := OthersCPU()
		if err == nil {
			return
		}
		last = err
		others := after - before
		t.Logf("attempt %d: %v (other processes used %v of CPU meanwhile)", i, err, others)
		if others <= tolerate {
			quiet++
		} else {
			time.Sleep(150 * time.Millisecond) // let whatever is using the CPUs finish
		}
	}
	if 2*quiet > attempts {
		t.Fatal(last)
	}
	t.Skipf("host too busy to time: other processes used over %v of CPU during %d of %d attempts; last: %v", tolerate, attempts-quiet, attempts, last)
}

//go:build unix

package bench

import (
	"syscall"
	"testing"
	"time"
)

// useCPUClock makes the timing harness measure this process's CPU time
// (user + system, from getrusage) until the test ends. The harness runs on
// one goroutine, so CPU time tracks its work while another process on the
// host, which can stretch wall time arbitrarily, leaves it unchanged.
func useCPUClock(t *testing.T) {
	t.Helper()
	prev := timingNow
	timingNow = func() time.Time {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			panic(err)
		}
		return time.Unix(0, ru.Utime.Nano()+ru.Stime.Nano())
	}
	t.Cleanup(func() { timingNow = prev })
}

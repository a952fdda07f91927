//go:build !unix

package bench

import "testing"

// useCPUClock keeps the wall clock where getrusage is unavailable.
func useCPUClock(t *testing.T) {}

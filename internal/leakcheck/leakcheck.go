// Package leakcheck fails a test binary whose goroutines outlive its
// tests. A package opts in with a TestMain that calls Main.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// patience bounds how long Main lets goroutines that are already
// winding down (a closed listener's accept loop, a drained session)
// finish.
const patience = 5 * time.Second

// permanent names the goroutines a process starts once and never stops:
// signal delivery, which signal.Notify (and so fuzzing) starts.
var permanent = []string{"os/signal.signal_recv"}

// Main runs the package's tests and exits with their status. When they
// pass, it then waits up to 5 s for every other goroutine to exit; if
// any remain, it prints their stacks and exits 1.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := survivors(); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// survivors polls the other goroutines' stacks until none remain or
// patience runs out, and returns the last ones seen.
func survivors() []string {
	deadline := time.Now().Add(patience)
	for {
		leaked := others()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// others returns the stacks of every goroutine except the caller's and
// the permanent ones.
func others() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The caller's goroutine is listed first.
	var out []string
	for _, stack := range strings.Split(string(buf), "\n\n")[1:] {
		if !slices.ContainsFunc(permanent, func(fn string) bool { return strings.Contains(stack, fn) }) {
			out = append(out, stack)
		}
	}
	return out
}

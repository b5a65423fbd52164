// Netsync: the Gap Guarantee protocol between two processes over real
// TCP. This example runs both endpoints (a listener playing Bob, a
// dialer playing Alice) over localhost to show the wire API; in a real
// deployment each side runs in its own process and only the Params —
// including the shared seed, the paper's public coins — are agreed out
// of band.
//
// Run: go run ./examples/netsync
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"

	robustsync "repro"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run reconciles over a localhost TCP connection and prints how many of
// Alice's points Bob's grown set leaves uncovered, which must be 0.
func run(w io.Writer) error {
	space := robustsync.HammingSpace(1024)
	const (
		n  = 48
		k  = 3
		r1 = 8
		r2 = 256
	)
	inst, err := workload.NewGapInstance(space, n, k, 1, r1, r2, 4821)
	if err != nil {
		return err
	}

	// Both endpoints agree on Params out of band.
	params := robustsync.GapParams{
		Space: space, N: n + k, R1: r1, R2: r2, Seed: 90210,
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()

	// Bob: accept one connection and run the receiving side.
	type bobOut struct {
		res robustsync.GapResult
		err error
	}
	bobDone := make(chan bobOut, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			bobDone <- bobOut{err: err}
			return
		}
		defer conn.Close()
		res, err := robustsync.GapReceive(conn, params, inst.SB)
		bobDone <- bobOut{res: res, err: err}
	}()

	// Alice: dial and run the sending side.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	rep, err := robustsync.GapSend(conn, params, inst.SA)
	conn.Close()
	bob := <-bobDone
	if err != nil {
		return err
	}
	if bob.err != nil {
		return bob.err
	}

	uncovered := 0
	for _, a := range inst.SA {
		if d, _ := bob.res.SPrime.MinDistanceTo(space, a); d > r2 {
			uncovered++
		}
	}
	fmt.Fprintf(w, "TCP gap reconciliation over %s\n", ln.Addr())
	fmt.Fprintf(w, "Alice sent %d far elements; Bob's set grew %d -> %d\n",
		len(rep.TA), len(inst.SB), len(bob.res.SPrime))
	fmt.Fprintf(w, "uncovered points of SA (must be 0): %d\n", uncovered)
	fmt.Fprintf(w, "Bob's endpoint traffic: %s\n", bob.res.Stats)
	if uncovered > 0 {
		return errors.New("gap guarantee violated over the wire")
	}
	return nil
}

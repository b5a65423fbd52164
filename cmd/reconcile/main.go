// Command reconcile demonstrates both robust-reconciliation protocols on
// a synthetic two-party scenario and reports quality and exact
// communication, next to the naive transmit-everything baseline.
//
// Usage:
//
//	reconcile -model emd  -norm hamming -d 128 -n 64 -k 4 -noise 2
//	reconcile -model gap  -norm hamming -d 1024 -n 64 -k 4 -r1 8 -r2 256
//	reconcile -model gap1 -norm l2 -d 2 -delta 1048575 -n 48 -k 3 -r1 50 -r2 30000
//
// Models: emd (Algorithm 1 with interval scaling), gap (Theorem 4.2),
// gap1 (Theorem 4.5 one-sided variant).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/matching"
	"repro/internal/metric"
	"repro/internal/workload"
)

func main() {
	err := run(os.Stdout, os.Args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "reconcile: %v\n", err)
		if errors.Is(err, errUncovered) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// errUncovered reports a gap run that left points of SA uncovered.
var errUncovered = errors.New("gap guarantee violated: points of SA left uncovered")

// run parses args, runs the chosen model and prints its report to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("reconcile", flag.ContinueOnError)
	model := fs.String("model", "emd", "emd | gap | gap1")
	normName := fs.String("norm", "hamming", "hamming | l1 | l2")
	d := fs.Int("d", 128, "dimension")
	delta := fs.Int("delta", 1, "max coordinate value ∆ (1 for binary)")
	n := fs.Int("n", 64, "points per party")
	k := fs.Int("k", 4, "outlier budget")
	noise := fs.Float64("noise", 2, "per-point noise radius (emd model)")
	r1 := fs.Float64("r1", 8, "close radius (gap models)")
	r2 := fs.Float64("r2", 0, "far radius (gap models; default d/4 for hamming)")
	seed := fs.Uint64("seed", 1, "shared public-coin seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var norm metric.Norm
	switch *normName {
	case "hamming":
		norm = metric.Hamming
	case "l1":
		norm = metric.L1
	case "l2":
		norm = metric.L2
	default:
		return fmt.Errorf("unknown norm %q", *normName)
	}
	space := metric.Grid(int32(*delta), *d, norm)
	if err := space.Validate(); err != nil {
		return fmt.Errorf("bad space: %v", err)
	}

	switch *model {
	case "emd":
		return runEMD(w, space, *n, *k, *noise, *seed)
	case "gap", "gap1":
		rr2 := *r2
		if rr2 == 0 {
			rr2 = float64(*d) / 4
		}
		if *model == "gap1" && rr2 <= *r1*float64(*d) {
			return fmt.Errorf("-model gap1 needs -r2 > -r1 · -d (Theorem 4.5), got -r2 %g <= %g; "+
				"the usage line's ℓ2 flags satisfy it: -norm l2 -d 2 -delta 1048575 -r1 50 -r2 30000", rr2, *r1*float64(*d))
		}
		return runGap(w, space, *n, *k, *r1, rr2, *seed, *model == "gap1")
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
}

func runEMD(w io.Writer, space metric.Space, n, k int, noise float64, seed uint64) error {
	inst := workload.NewEMDInstance(space, n, k, noise, seed)
	emdK := matching.EMDk(space, inst.SA, inst.SB, k)
	before := matching.EMD(space, inst.SA, inst.SB)

	p := emd.DefaultParams(space, n, k, seed+1)
	res, err := emd.ReconcileScaled(p, inst.SA, inst.SB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "EMD model on %s, n=%d k=%d noise=%g\n", space, n, k, noise)
	fmt.Fprintf(w, "  EMD(SA,SB) before:        %.1f\n", before)
	fmt.Fprintf(w, "  EMD_k(SA,SB) (optimum):   %.1f\n", emdK)
	if res.Failed {
		fmt.Fprintln(w, "  protocol reported failure (Theorem 3.4 allows prob <= 1/8)")
		return nil
	}
	after := matching.EMD(space, inst.SA, res.SPrime)
	fmt.Fprintf(w, "  EMD(SA,S'B) after:        %.1f  (ratio to EMD_k: %.2f)\n",
		after, after/max(emdK, 1))
	fmt.Fprintf(w, "  decoded level i* = %d of %d; |XA| = %d\n", res.Level, res.Levels, len(res.XA))
	fmt.Fprintf(w, "  communication: %s (naive: %d bits)\n", res.Stats, emd.NaiveBits(space, n))
	return nil
}

func runGap(w io.Writer, space metric.Space, n, k int, r1, r2 float64, seed uint64, oneSided bool) error {
	inst, err := workload.NewGapInstance(space, n, k, 1, r1, r2, seed)
	if err != nil {
		return fmt.Errorf("instance: %v", err)
	}
	p := gap.Params{Space: space, N: n + k, R1: r1, R2: r2, Seed: seed + 1}
	var res gap.Result
	if oneSided {
		pExp := 1.0
		if space.Norm == metric.L2 {
			pExp = 2.0
		}
		res, err = gap.ReconcileOneSided(p, pExp, inst.SA, inst.SB)
	} else {
		res, err = gap.Reconcile(p, inst.SA, inst.SB)
	}
	if err != nil {
		return err
	}
	uncovered := 0
	for _, a := range inst.SA {
		if d, _ := res.SPrime.MinDistanceTo(space, a); d > r2 {
			uncovered++
		}
	}
	name := "Gap Guarantee (Thm 4.2)"
	if oneSided {
		name = "Gap Guarantee one-sided (Thm 4.5)"
	}
	fmt.Fprintf(w, "%s on %s, n=%d k=%d r1=%g r2=%g\n", name, space, n, k, r1, r2)
	fmt.Fprintf(w, "  planted far points: %d, transferred elements: %d\n", len(inst.Far), len(res.TA))
	fmt.Fprintf(w, "  uncovered points of SA (must be 0): %d\n", uncovered)
	fmt.Fprintf(w, "  key length h=%d, threshold=%d, rho=%.4f\n", res.H, res.Threshold, res.Rho)
	fmt.Fprintf(w, "  communication: %s (naive: %d bits)\n", res.Stats, gap.NaiveBits(space, n))
	if uncovered > 0 {
		return errUncovered
	}
	return nil
}

package rng

import "math"

// Thin wrappers so the generator code reads like the underlying formulas.
// Keeping them here (rather than inlining math.X calls) also gives the
// tests a single seam for checking numeric edge cases.

func sqrt(x float64) float64 { return math.Sqrt(x) }
func ln(x float64) float64   { return math.Log(x) }

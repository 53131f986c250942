package main

import (
	"fmt"
	"math"

	"svtiming/internal/core"
	"svtiming/internal/netlist"
	"svtiming/internal/stdcell"
)

// The checks below hold the program's outputs to properties the method
// must have, never to a stored copy of today's numbers. Each is a pure
// function so that checks_test.go can show it rejects a broken output.

// Reduction band the repository's own tests draw around the paper's
// 28–40 % Table 2 spread reduction.
const (
	minReductionPct = 20
	maxReductionPct = 50
)

// cdTolerance is the paper's reported maximum full-chip CD discrepancy,
// as a share of the target CD.
const cdTolerance = 0.20

// checkTable2Row checks one Table 2 row: finite delays, best case below
// nominal below worst case for both timing models, a narrower spread for
// the systematic-variation aware model, and a reduction inside the band.
func checkTable2Row(r core.Comparison, wantName string, wantGates int) error {
	if r.Name != wantName || r.Gates != wantGates {
		return fmt.Errorf("row %q with %d gates, want %q with %d", r.Name, r.Gates, wantName, wantGates)
	}
	if r.Degraded {
		return fmt.Errorf("%s: row degraded", r.Name)
	}
	for _, v := range []float64{r.TradNom, r.TradBC, r.TradWC, r.NewNom, r.NewBC, r.NewWC} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("%s: delay %v is not a positive finite number", r.Name, v)
		}
	}
	if !(r.TradBC < r.TradNom && r.TradNom < r.TradWC) {
		return fmt.Errorf("%s: traditional corners out of order: BC %v, nominal %v, WC %v", r.Name, r.TradBC, r.TradNom, r.TradWC)
	}
	if !(r.NewBC < r.NewNom && r.NewNom < r.NewWC) {
		return fmt.Errorf("%s: aware corners out of order: BC %v, nominal %v, WC %v", r.Name, r.NewBC, r.NewNom, r.NewWC)
	}
	if r.NewSpread() >= r.TradSpread() {
		return fmt.Errorf("%s: aware spread %v not below traditional %v", r.Name, r.NewSpread(), r.TradSpread())
	}
	if red := r.ReductionPct(); red < minReductionPct || red > maxReductionPct {
		return fmt.Errorf("%s: reduction %.2f %% outside [%d, %d] %%", r.Name, red, minReductionPct, maxReductionPct)
	}
	return nil
}

// checkTable2Rows checks a whole Table 2 against the requested circuits.
func checkTable2Rows(rows []core.Comparison, names []string, gates map[string]int) error {
	if len(rows) != len(names) {
		return fmt.Errorf("%d rows for %d circuits", len(rows), len(names))
	}
	for i, r := range rows {
		if err := checkTable2Row(r, names[i], gates[names[i]]); err != nil {
			return err
		}
	}
	return nil
}

// sameRow reports whether two rows are bit-identical.
func sameRow(a, b core.Comparison) error {
	if a.Name != b.Name || a.Gates != b.Gates || a.Degraded != b.Degraded {
		return fmt.Errorf("row %q/%d/%v differs from %q/%d/%v", a.Name, a.Gates, a.Degraded, b.Name, b.Gates, b.Degraded)
	}
	av := []float64{a.TradNom, a.TradBC, a.TradWC, a.NewNom, a.NewBC, a.NewWC}
	bv := []float64{b.TradNom, b.TradBC, b.TradWC, b.NewNom, b.NewBC, b.NewWC}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return fmt.Errorf("%s: delay %d is %v, want bit-identical %v", a.Name, i, av[i], bv[i])
		}
	}
	return nil
}

func sameRows(a, b []core.Comparison) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, want %d", len(a), len(b))
	}
	for i := range a {
		if err := sameRow(a[i], b[i]); err != nil {
			return err
		}
	}
	return nil
}

// deviceCount is the number of transistor gates in a netlist, computed
// from the cell masters independently of the full-chip flow.
func deviceCount(n *netlist.Netlist, lib *stdcell.Library) (int, error) {
	total := 0
	for i, inst := range n.Instances {
		c, err := lib.Cell(inst.Cell)
		if err != nil {
			return 0, fmt.Errorf("instance %d: %w", i, err)
		}
		total += c.NumGates()
	}
	return total, nil
}

// checkFullChipCDs checks a full-chip CD map: exactly one CD per gate
// device of every instance, each finite and within cdTolerance of target.
func checkFullChipCDs(cds map[core.GateKey]float64, n *netlist.Netlist, lib *stdcell.Library, devices int, targetNm float64) error {
	if len(cds) != devices {
		return fmt.Errorf("%d CDs for %d gate devices", len(cds), devices)
	}
	for i, inst := range n.Instances {
		c, err := lib.Cell(inst.Cell)
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		for g := 0; g < c.NumGates(); g++ {
			cd, ok := cds[core.GateKey{Inst: i, Gate: g}]
			if !ok {
				return fmt.Errorf("instance %d gate %d has no CD", i, g)
			}
			if math.IsNaN(cd) || math.IsInf(cd, 0) {
				return fmt.Errorf("instance %d gate %d: CD %v is not finite", i, g, cd)
			}
			if math.Abs(cd-targetNm) > cdTolerance*targetNm {
				return fmt.Errorf("instance %d gate %d: CD %.3f nm more than %.0f %% from the %.0f nm target", i, g, cd, 100*cdTolerance, targetNm)
			}
		}
	}
	return nil
}

// sameCDs reports whether two CD maps are bit-identical.
func sameCDs(a, b map[core.GateKey]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d CDs, want %d", len(a), len(b))
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok {
			return fmt.Errorf("instance %d gate %d missing", k.Inst, k.Gate)
		}
		if math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("instance %d gate %d: CD %v, want bit-identical %v", k.Inst, k.Gate, v, w)
		}
	}
	return nil
}

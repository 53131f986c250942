package main

import (
	"context"
	"runtime"
	"time"

	"svtiming/internal/core"
	"svtiming/internal/expt"
	"svtiming/internal/netlist"
	"svtiming/internal/obs"
)

// fullChipDesign is the mid-size design the cold sweep corrects.
const fullChipDesign = "c1908"

type fullChipState struct {
	flow    *core.Flow
	design  *core.Design
	devices int
}

// runFullChip is the fullchip_cold workload: each operation empties the
// wafer and OPC-model CD caches and the row-solve cache, then runs
// full-chip model-based OPC over every row of one design.
func runFullChip(cfg config) (*report, error) {
	r := newReport()
	ctx := context.Background()
	var reg *obs.Registry
	if cfg.trace {
		reg = obs.New(obs.WithClockFunc(expt.Now))
	}
	st, setup, err := repeatSetup(setupReps, func() (fullChipState, func(), error) {
		fl, err := core.NewFlow(core.WithParallelism(workers), core.WithObservability(reg))
		if err != nil {
			return fullChipState{}, nil, err
		}
		d, err := fl.PrepareDesign(fullChipDesign)
		if err != nil {
			return fullChipState{}, nil, err
		}
		n, err := netlist.GenerateNamed(fl.Lib, fullChipDesign)
		if err != nil {
			return fullChipState{}, nil, err
		}
		devices, err := deviceCount(n, fl.Lib)
		if err != nil {
			return fullChipState{}, nil, err
		}
		return fullChipState{flow: fl, design: d, devices: devices}, nil, nil
	})
	if err != nil {
		return nil, err
	}
	fl, d := st.flow, st.design
	gates := d.Netlist.NumGates()

	var first map[core.GateKey]float64
	sweeps := func(end time.Time, reg *obs.Registry) *opLog {
		ops := &opLog{reg: reg}
		for expt.Now().Before(end) {
			var cds map[core.GateKey]float64
			err := ops.time(func() (err error) {
				fl.Wafer.ClearCache()
				fl.Recipe.Model.ClearCache()
				fl.Rows.Clear()
				cds, err = fl.FullChipCDs(ctx, d)
				return err
			})
			r.attempted++
			if err != nil {
				r.failed++
				r.notef("failed: %v", err)
				continue
			}
			ops.done(gates)
			if !r.check(checkFullChipCDs(cds, d.Netlist, fl.Lib, st.devices, fl.Wafer.TargetCD)) {
				continue
			}
			warm, err := fl.FullChipCDs(ctx, d)
			if r.check(err) {
				r.check(sameCDs(warm, cds))
			}
			if first == nil {
				first = cds
			} else {
				r.check(sameCDs(cds, first))
			}
		}
		return ops
	}

	if !cfg.trace {
		ops := sweeps(cfg.deadline(1), nil)
		r.endToEnd(setup, liveHeapMiB(), ops.n(), ops)
		runtime.KeepAlive(st)
		return r, nil
	}

	r.metrics["opc.pitchtable_ms"] = spanMs(reg, "pitchtable") / setupReps
	r.metrics["liberty.characterize_ms"] = spanMs(reg, "characterize") / setupReps
	base := sweeps(cfg.deadline(0.5), nil)
	tr, err := startTrace("fullchip_cold")
	if err != nil {
		return nil, err
	}
	traced := sweeps(cfg.deadline(1), reg)
	if err := tr.stop(r, traced, base); err != nil {
		return nil, err
	}
	return r, nil
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"svtiming/internal/core"
	"svtiming/internal/expt"
	"svtiming/internal/netlist"
	"svtiming/internal/obs"
	"svtiming/internal/place"
	"svtiming/internal/stdcell"
)

// table2Circuits are the paper's Table 2 benchmarks.
var table2Circuits = []string{"c432", "c880", "c1355", "c1908", "c3540"}

type table2State struct {
	flow *core.Flow
	ref  []core.Comparison // the serial reference run made during set-up
}

// runTable2 is the table2_signoff workload: a closed loop with one
// caller, each operation one Flow.Run over the Table 2 circuits on a
// flow built during set-up.
func runTable2(cfg config) (*report, error) {
	r := newReport()
	ctx := context.Background()
	gates, total, err := circuitGates(table2Circuits)
	if err != nil {
		return nil, err
	}
	var reg *obs.Registry
	if cfg.trace {
		reg = obs.New(obs.WithClockFunc(expt.Now))
	}
	st, setup, err := repeatSetup(setupReps, func() (table2State, func(), error) {
		fl, err := core.NewFlow(core.WithParallelism(workers), core.WithObservability(reg))
		if err != nil {
			return table2State{}, nil, err
		}
		serial, err := core.NewFlow(core.WithParallelism(1))
		if err != nil {
			return table2State{}, nil, err
		}
		res, err := serial.Run(ctx, table2Circuits)
		if err != nil {
			return table2State{}, nil, fmt.Errorf("serial reference run: %w", err)
		}
		return table2State{flow: fl, ref: res.Rows}, nil, nil
	})
	if err != nil {
		return nil, err
	}
	r.check(checkTable2Rows(st.ref, table2Circuits, gates))

	run := func() ([]core.Comparison, error) {
		res, err := st.flow.Run(ctx, table2Circuits)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	if !cfg.trace {
		ops := timeOps(r, cfg.deadline(1), nil, total, run, st.ref)
		r.endToEnd(setup, liveHeapMiB(), ops.n(), ops)
		runtime.KeepAlive(st)
		return r, nil
	}

	r.metrics["opc.pitchtable_ms"] = spanMs(reg, "pitchtable") / setupReps
	r.metrics["liberty.characterize_ms"] = spanMs(reg, "characterize") / setupReps
	base := timeOps(r, cfg.deadline(0.5), nil, total, run, st.ref)

	// The traced operation is Flow.Run taken apart into its public
	// constituent calls, each timed; its rows must be bit-identical to
	// Flow.Run's.
	tr, err := startTrace("table2_signoff")
	if err != nil {
		return nil, err
	}
	var lt layerTimes
	traced := timeOps(r, cfg.deadline(1), reg, total, func() ([]core.Comparison, error) {
		return decomposedTable2(st.flow, table2Circuits, &lt)
	}, st.ref)
	if err := tr.stop(r, traced, base); err != nil {
		return nil, err
	}
	lt.report(r)
	return r, nil
}

// timeOps runs op in a closed loop until end, timing each call (and
// counting reg's counters, when given) and checking its rows against ref.
// Only successful operations count gates.
func timeOps(r *report, end time.Time, reg *obs.Registry, gatesPerOp int, op func() ([]core.Comparison, error), ref []core.Comparison) *opLog {
	ops := &opLog{reg: reg}
	for expt.Now().Before(end) {
		var rows []core.Comparison
		err := ops.time(func() (err error) {
			rows, err = op()
			return err
		})
		r.attempted++
		if err != nil {
			r.failed++
			r.notef("failed: %v", err)
			continue
		}
		ops.done(gatesPerOp)
		r.check(sameRows(rows, ref))
	}
	return ops
}

// circuitGates generates each circuit's netlist to learn its gate count.
func circuitGates(names []string) (map[string]int, int, error) {
	lib := stdcell.Default()
	gates := map[string]int{}
	total := 0
	for _, name := range names {
		n, err := netlist.GenerateNamed(lib, name)
		if err != nil {
			return nil, 0, err
		}
		gates[name] = n.NumGates()
		total += n.NumGates()
	}
	return gates, total, nil
}

// layerTimes accumulates the traced table2_signoff operation's time per
// layer, one sample per operation.
type layerTimes struct {
	generate, place, refresh, analyze []float64
	analyses                          int
}

func (lt *layerTimes) report(r *report) {
	r.metrics["netlist.generate_ms"] = median(lt.generate)
	r.metrics["place.place_ms"] = median(lt.place)
	r.metrics["context.refresh_ms"] = median(lt.refresh)
	r.metrics["sta.analyze_ms"] = median(lt.analyze)
	r.metrics["sta.analyses"] = float64(lt.analyses) / float64(len(lt.analyze))
}

func msSince(t time.Time) float64 { return float64(expt.Now().Sub(t).Nanoseconds()) / 1e6 }

// decomposedTable2 computes the Table 2 rows the way Flow.Run does, one
// circuit after another: generate, place, refresh the placement context,
// then the six (model, corner) analyses.
func decomposedTable2(fl *core.Flow, names []string, lt *layerTimes) ([]core.Comparison, error) {
	var gen, pl, ref, ana float64
	rows := make([]core.Comparison, 0, len(names))
	for _, name := range names {
		t := expt.Now()
		n, err := netlist.GenerateNamed(fl.Lib, name)
		if err == nil {
			err = n.Validate(fl.Lib)
		}
		gen += msSince(t)
		if err != nil {
			return nil, err
		}

		t = expt.Now()
		p, err := place.Place(n, fl.Lib, place.Options{})
		if err == nil {
			err = p.Verify()
		}
		pl += msSince(t)
		if err != nil {
			return nil, err
		}

		d := &core.Design{Netlist: n, Placement: p}
		t = expt.Now()
		err = fl.RefreshContext(d)
		ref += msSince(t)
		if err != nil {
			return nil, err
		}

		t = expt.Now()
		var delay [6]float64
		for k := range delay {
			c := [3]core.Corner{core.Nominal, core.BestCase, core.WorstCase}[k/2]
			analyze := fl.AnalyzeTraditional
			if k%2 == 1 {
				analyze = fl.AnalyzeContextual
			}
			rep, err := analyze(d, c)
			if err != nil {
				return nil, err
			}
			delay[k] = rep.MaxDelay
			lt.analyses++
		}
		ana += msSince(t)
		rows = append(rows, core.Comparison{
			Name: n.Name, Gates: n.NumGates(),
			TradNom: delay[0], NewNom: delay[1],
			TradBC: delay[2], NewBC: delay[3],
			TradWC: delay[4], NewWC: delay[5],
		})
	}
	lt.generate = append(lt.generate, gen)
	lt.place = append(lt.place, pl)
	lt.refresh = append(lt.refresh, ref)
	lt.analyze = append(lt.analyze, ana)
	return rows, nil
}

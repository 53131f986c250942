package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"svtiming/internal/core"
	"svtiming/internal/incr"
	"svtiming/internal/netlist"
	"svtiming/internal/place"
	"svtiming/internal/stdcell"
)

// goodRow is a Table 2 row with every property the method must have: a
// 35 % narrower aware spread inside corners that are in order.
func goodRow() core.Comparison {
	return core.Comparison{
		Name: "c432", Gates: 160,
		TradNom: 120, TradBC: 100, TradWC: 140,
		NewNom: 118, NewBC: 105, NewWC: 131,
	}
}

func TestCheckTable2RowAcceptsGoodRow(t *testing.T) {
	if err := checkTable2Row(goodRow(), "c432", 160); err != nil {
		t.Fatal(err)
	}
}

func TestCheckTable2RowRejectsBrokenRows(t *testing.T) {
	cases := map[string]func(r *core.Comparison){
		"traditional BC and WC swapped": func(r *core.Comparison) { r.TradBC, r.TradWC = r.TradWC, r.TradBC },
		"aware BC and WC swapped":       func(r *core.Comparison) { r.NewBC, r.NewWC = r.NewWC, r.NewBC },
		"aware nominal above WC":        func(r *core.Comparison) { r.NewNom = 132 },
		"traditional nominal below BC":  func(r *core.Comparison) { r.TradNom = 99 },
		"aware spread not narrower":     func(r *core.Comparison) { r.NewBC, r.NewWC = 95, 140 },
		"reduction above the band":      func(r *core.Comparison) { r.NewBC, r.NewWC = 112, 124 },
		"reduction below the band":      func(r *core.Comparison) { r.NewBC, r.NewWC = 101, 135 },
		"non-finite delay":              func(r *core.Comparison) { r.NewNom = math.NaN() },
		"infinite delay":                func(r *core.Comparison) { r.TradWC = math.Inf(1) },
		"zero delay":                    func(r *core.Comparison) { r.TradBC = 0 },
		"degraded":                      func(r *core.Comparison) { r.Degraded = true },
		"wrong circuit":                 func(r *core.Comparison) { r.Name = "c880" },
		"wrong gate count":              func(r *core.Comparison) { r.Gates = 159 },
	}
	for name, breakRow := range cases {
		r := goodRow()
		breakRow(&r)
		if err := checkTable2Row(r, "c432", 160); err == nil {
			t.Errorf("%s: accepted %+v", name, r)
		}
	}
}

func TestCheckTable2RowsRejectsMissingRow(t *testing.T) {
	rows := []core.Comparison{goodRow()}
	if err := checkTable2Rows(rows, []string{"c432", "c880"}, map[string]int{"c432": 160, "c880": 383}); err == nil {
		t.Error("accepted one row for two circuits")
	}
}

func TestSameRowRejectsOneULP(t *testing.T) {
	a := goodRow()
	if err := sameRow(a, a); err != nil {
		t.Fatal(err)
	}
	// A session row that differs from its cold rebuild in the last bit.
	b := a
	b.NewWC = math.Nextafter(b.NewWC, math.Inf(1))
	if err := sameRow(b, a); err == nil {
		t.Error("accepted a row one ULP away from its rebuild")
	}
	c := a
	c.Gates++
	if err := sameRow(c, a); err == nil {
		t.Error("accepted a row with another gate count")
	}
	if err := sameRows([]core.Comparison{a}, []core.Comparison{a, a}); err == nil {
		t.Error("accepted a missing row")
	}
}

// c17CDs returns a correct CD map for c17: every gate device at target.
func c17CDs(t *testing.T) (*netlist.Netlist, *stdcell.Library, int, map[core.GateKey]float64) {
	t.Helper()
	lib := stdcell.Default()
	n := netlist.C17()
	devices, err := deviceCount(n, lib)
	if err != nil {
		t.Fatal(err)
	}
	cds := map[core.GateKey]float64{}
	for i, inst := range n.Instances {
		for g := 0; g < lib.MustCell(inst.Cell).NumGates(); g++ {
			cds[core.GateKey{Inst: i, Gate: g}] = 90 + float64(g)
		}
	}
	return n, lib, devices, cds
}

func TestCheckFullChipCDsAcceptsGoodMap(t *testing.T) {
	n, lib, devices, cds := c17CDs(t)
	if devices == 0 || len(cds) != devices {
		t.Fatalf("%d devices, %d CDs", devices, len(cds))
	}
	if err := checkFullChipCDs(cds, n, lib, devices, 90); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFullChipCDsRejectsBrokenMaps(t *testing.T) {
	cases := map[string]func(m map[core.GateKey]float64){
		"missing CD":          func(m map[core.GateKey]float64) { delete(m, core.GateKey{Inst: 0, Gate: 1}) },
		"NaN CD":              func(m map[core.GateKey]float64) { m[core.GateKey{Inst: 1, Gate: 0}] = math.NaN() },
		"infinite CD":         func(m map[core.GateKey]float64) { m[core.GateKey{Inst: 1, Gate: 0}] = math.Inf(-1) },
		"CD 21 % over target": func(m map[core.GateKey]float64) { m[core.GateKey{Inst: 2, Gate: 0}] = 90 * 1.21 },
		"CD 21 % short":       func(m map[core.GateKey]float64) { m[core.GateKey{Inst: 2, Gate: 0}] = 90 * 0.79 },
		"CD for a gate the cell lacks": func(m map[core.GateKey]float64) {
			delete(m, core.GateKey{Inst: 0, Gate: 0})
			m[core.GateKey{Inst: 0, Gate: 7}] = 90
		},
		"extra device": func(m map[core.GateKey]float64) { m[core.GateKey{Inst: 99, Gate: 0}] = 90 },
	}
	for name, breakMap := range cases {
		n, lib, devices, cds := c17CDs(t)
		breakMap(cds)
		if err := checkFullChipCDs(cds, n, lib, devices, 90); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSameCDsRejectsOneULP(t *testing.T) {
	_, _, _, a := c17CDs(t)
	_, _, _, b := c17CDs(t)
	if err := sameCDs(a, b); err != nil {
		t.Fatal(err)
	}
	k := core.GateKey{Inst: 3, Gate: 0}
	b[k] = math.Nextafter(b[k], 0)
	if err := sameCDs(a, b); err == nil {
		t.Error("accepted a warm re-sweep one ULP away")
	}
	delete(b, k)
	if err := sameCDs(a, b); err == nil {
		t.Error("accepted a warm re-sweep missing a device")
	}
}

func TestParsePprofFiles(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 2.81s, 87.00% of 3.23s total
      flat  flat%   sum%        cum   cum%
     1.25s 38.70% 38.70%      1.25s 38.70%  svtiming@v0.0.0/internal/fourier/plan.go
     250ms  7.74% 46.44%      1.50s 46.44%  svtiming@v0.0.0/internal/litho/socs/socs.go (inline)
     120ms  3.72% 50.15%      0.12s  3.72%  runtime/complex.go
      30ms  0.93% 51.08%      0.03s  0.93%  internal/runtime/maps/group.go (inline)
      20ms  0.62% 51.70%      0.02s  0.62%  encoding/json/encode.go
      10ms  0.31% 52.01%      0.01s  0.31%  svtiming@v0.0.0/internal/par/par.go
     500us  0.02% 52.02%      0.01s  0.31%  svtiming/perfbench/daemon.go
         0     0% 52.02%      0.01s  0.31%  svtiming@v0.0.0/internal/sta/sta.go
`)
	got, err := parsePprofFiles(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"fourier": 1250, "litho": 250, "runtime": 150, "stdlib": 20, "other": 10, "bench": 0.5, "sta": 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if _, err := parsePprofFiles([]byte("no profile here\n")); err == nil {
		t.Error("accepted output without a table")
	}
}

// TestBuildRoundIsSeededAndCloses pins the edit script's contract: the
// same seed gives the same round, another seed another one, the counts of
// each kind are fixed, and a round returns every session to its base
// placement and exposure condition.
func TestBuildRoundIsSeededAndCloses(t *testing.T) {
	a, err := buildRound(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 gave two different rounds")
	}
	c, err := buildRound(2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same round")
	}
	for _, round := range [][]step{a, c} {
		count := map[stepKind]int{}
		for _, s := range round {
			count[s.kind]++
		}
		wantEdits, wantNudges := 0, 0
		for _, spec := range editSessions {
			wantEdits += 2 * (spec.shuttles + spec.swaps)
			wantNudges += 2 * len(spec.nudges)
		}
		if count[stepEdit] != wantEdits || count[stepNudge] != wantNudges || count[stepRun] != runReads {
			t.Errorf("round has %v, want %d edits, %d nudges, %d runs", count, wantEdits, wantNudges, runReads)
		}
		lib := stdcell.Default()
		for si, spec := range editSessions {
			p, err := place.Place(netlist.MustGenerate(lib, spec.bench), lib, place.Options{})
			if err != nil {
				t.Fatal(err)
			}
			base := append([]place.Placed(nil), p.Cells...)
			defocus, dose := 0.0, 1.0
			for _, s := range round {
				if s.sess != si {
					continue
				}
				switch s.edit.Op {
				case incr.OpNudgeDefocus:
					defocus += s.edit.DefocusNm
				case incr.OpNudgeDose:
					dose += s.edit.DoseDelta
				default:
					if _, err := s.edit.ApplyGeometry(p, lib, 0); err != nil {
						t.Fatalf("%s: %v", spec.bench, err)
					}
				}
				if !strings.Contains(string(s.body), spec.bench) {
					t.Errorf("%s: body %s names another design", spec.bench, s.body)
				}
			}
			if !reflect.DeepEqual(p.Cells, base) || defocus != 0 || dose != 1 {
				t.Errorf("%s: round does not return to the base state (defocus %v, dose %v)", spec.bench, defocus, dose)
			}
		}
	}
}

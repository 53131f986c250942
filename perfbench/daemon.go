package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"

	"svtiming/internal/core"
	"svtiming/internal/expt"
	"svtiming/internal/incr"
	"svtiming/internal/netlist"
	"svtiming/internal/obs"
	"svtiming/internal/place"
	"svtiming/internal/service"
	"svtiming/internal/stdcell"
)

// sessionSpec is one resident /v1/edit session's share of a round. Every
// edit is undone by the next edit to the same session, so the session
// only ever visits its base state and one perturbation of it: a round
// revisits exactly the states of the round before, every revisit is a
// cache hit, and the process CD cache (which has no bound) stops growing
// after the first round.
type sessionSpec struct {
	bench    string
	shuttles int         // move_cell out-and-back pairs, one instance each
	swaps    int         // resize_cell out-and-back pairs, one instance each
	nudges   []incr.Edit // condition nudges, each followed by its negation
}

// editSessions gives c1908 most of the edits, so that the latency median
// and 90th percentile fall inside one design's distribution rather than
// between c432's and c1908's. The nudge steps are exact binary fractions
// so that out-and-back returns to the bit-identical condition.
var editSessions = []sessionSpec{
	{bench: "c1908", shuttles: 32, swaps: 4, nudges: []incr.Edit{
		{Op: incr.OpNudgeDefocus, DefocusNm: 25},
		{Op: incr.OpNudgeDose, DoseDelta: 1.0 / 64},
		{Op: incr.OpNudgeDefocus, DefocusNm: 50},
	}},
	{bench: "c432", shuttles: 12, swaps: 2, nudges: []incr.Edit{
		{Op: incr.OpNudgeDose, DoseDelta: 1.0 / 64},
	}},
}

const (
	runBench  = "c432" // the design /v1/run reads ask for
	runReads  = 8      // /v1/run reads per round
	shuttleNm = 20     // move_cell step, nm (an integer, so out-and-back is exact)
)

type stepKind int

const (
	stepEdit  stepKind = iota // move_cell or resize_cell
	stepNudge                 // nudge_defocus or nudge_dose
	stepRun                   // /v1/run read
)

// step is one request of a round.
type step struct {
	kind stepKind
	sess int // index into editSessions; -1 for a run read
	edit incr.Edit
	body []byte
	// out marks the first edit of a shuttle: the session is perturbed
	// after it, which makes it the state the rebuild oracle checks.
	out bool
}

type editBody struct {
	Benchmarks []string   `json:"benchmarks"`
	Create     bool       `json:"create,omitempty"`
	Edit       *incr.Edit `json:"edit,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// buildRound derives one round of requests from the seed. The seed picks
// the shuttled and swapped instances among those with room to move, the
// direction of every shuttle and nudge, the replacement master of every
// swap, and the order of the round; the counts of each kind are fixed.
func buildRound(seed int64) ([]step, error) {
	rng := rand.New(rand.NewSource(seed))
	lib := stdcell.Default()
	var units [][]step
	for si, spec := range editSessions {
		n, err := netlist.GenerateNamed(lib, spec.bench)
		if err != nil {
			return nil, err
		}
		p, err := place.Place(n, lib, place.Options{})
		if err != nil {
			return nil, err
		}
		order := rng.Perm(len(p.Cells))
		used := map[int]bool{}
		var moves, swaps [][2]incr.Edit
		for _, i := range order {
			if len(moves) == spec.shuttles {
				break
			}
			if e, ok := shuttle(p, i, rng); ok {
				moves = append(moves, e)
				used[i] = true
			}
		}
		for _, i := range order {
			if len(swaps) == spec.swaps {
				break
			}
			if used[i] {
				continue
			}
			if e, ok := swap(p, lib, i, rng); ok {
				swaps = append(swaps, e)
			}
		}
		if len(moves) < spec.shuttles || len(swaps) < spec.swaps {
			return nil, fmt.Errorf("%s: only %d shuttle and %d swap candidates", spec.bench, len(moves), len(swaps))
		}
		for _, pair := range append(moves, swaps...) {
			units = append(units, []step{
				{kind: stepEdit, sess: si, edit: pair[0], out: true},
				{kind: stepEdit, sess: si, edit: pair[1]},
			})
		}
		for _, e := range spec.nudges {
			if rng.Intn(2) == 1 {
				e.DefocusNm, e.DoseDelta = -e.DefocusNm, -e.DoseDelta
			}
			back := e
			back.DefocusNm, back.DoseDelta = -e.DefocusNm, -e.DoseDelta
			units = append(units, []step{
				{kind: stepNudge, sess: si, edit: e},
				{kind: stepNudge, sess: si, edit: back},
			})
		}
	}
	for k := 0; k < runReads; k++ {
		units = append(units, []step{{kind: stepRun, sess: -1}})
	}
	rng.Shuffle(len(units), func(a, b int) { units[a], units[b] = units[b], units[a] })

	var round []step
	for _, u := range units {
		for _, s := range u {
			if s.kind == stepRun {
				s.body = mustJSON(editBody{Benchmarks: []string{runBench}})
			} else {
				e := s.edit
				s.body = mustJSON(editBody{Benchmarks: []string{editSessions[s.sess].bench}, Edit: &e})
			}
			round = append(round, s)
		}
	}
	return round, nil
}

// shuttle returns a move of instance i by ±shuttleNm and its inverse, if
// the base placement has room for both and the move back restores the
// position bit for bit (placed positions are not integers, and a cell
// placed within the placer's overlap tolerance of a neighbour cannot be
// moved back onto that position).
func shuttle(p *place.Placement, i int, rng *rand.Rand) ([2]incr.Edit, bool) {
	dx := float64(shuttleNm)
	if rng.Intn(2) == 1 {
		dx = -dx
	}
	x := p.Cells[i].X
	for _, d := range []float64{dx, -dx} {
		if p.MoveCell(i, d) != nil {
			continue
		}
		back := p.MoveCell(i, -d)
		exact := math.Float64bits(p.Cells[i].X) == math.Float64bits(x)
		p.Cells[i].X = x
		if back != nil || !exact {
			continue
		}
		return [2]incr.Edit{
			{Op: incr.OpMoveCell, Inst: i, DxNm: d},
			{Op: incr.OpMoveCell, Inst: i, DxNm: -d},
		}, true
	}
	return [2]incr.Edit{}, false
}

// swap returns a master swap of instance i to another master with the
// same inputs that fits its slot, and the swap back.
func swap(p *place.Placement, lib *stdcell.Library, i int, rng *rand.Rand) ([2]incr.Edit, bool) {
	orig := p.Cells[i].Cell
	cells := lib.Cells()
	for _, k := range rng.Perm(len(cells)) {
		c := cells[k]
		if c.Name == orig.Name || len(c.Inputs) != len(orig.Inputs) {
			continue
		}
		if p.SwapMaster(i, c) != nil {
			continue
		}
		back := p.SwapMaster(i, orig)
		p.Cells[i].Cell, p.Netlist.Instances[i].Cell = orig, orig.Name
		if back != nil {
			continue
		}
		return [2]incr.Edit{
			{Op: incr.OpResizeCell, Inst: i, Cell: c.Name},
			{Op: incr.OpResizeCell, Inst: i, Cell: orig.Name},
		}, true
	}
	return [2]incr.Edit{}, false
}

// daemon is an in-process svtimingd on a loopback listener, with one
// client connection.
type daemon struct {
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

func startDaemon(reg *obs.Registry) (*daemon, error) {
	srv := service.New(service.Config{Parallelism: workers, Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	//lint:allow nakedgo the server must run beside its client; stop waits for Serve to return
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for it to exit.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		_ = d.hs.Close() // the deadline passed; Serve's return below is what matters
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		panic(fmt.Sprintf("svtimingd serve: %v", err))
	}
}

func (d *daemon) post(path string, body []byte) ([]byte, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// editState is the edit_daemon workload's resident state: the daemon,
// its sessions, and what a round must reproduce.
type editState struct {
	d     *daemon
	gates map[string]int // gate count of each design
	// sent[s] is every edit session s applied, in order: the script the
	// rebuild oracle replays.
	sent [][]incr.Edit
	// last[s] is session s's row after its latest response.
	last []core.Comparison
	// incr[s] is session s's latest manifest tally.
	incr []obs.IncrStats
	// expect[i] is the first round's response to step i: the row of an
	// edit or nudge, the bytes of a run read. Later rounds must match it.
	expectRow []core.Comparison
	expectRun [][]byte
	// sentAt[i] is len(sent[s]) after step i of the first round.
	sentAt []int
}

// editLogs are the timed requests of a phase, by kind.
type editLogs struct {
	edit, nudge, run  *opLog
	rounds            int
	gatesResimulated  int64
	conesRepropagated int64
	fullRebuilds      int64
}

func newEditLogs(reg *obs.Registry) *editLogs {
	return &editLogs{edit: &opLog{reg: reg}, nudge: &opLog{reg: reg}, run: &opLog{reg: reg}}
}

func (l *editLogs) kinds() []*opLog { return []*opLog{l.edit, l.nudge, l.run} }

func (l *editLogs) of(k stepKind) *opLog {
	switch k {
	case stepEdit:
		return l.edit
	case stepNudge:
		return l.nudge
	default:
		return l.run
	}
}

// play sends one round. The first round records what every later round
// must reproduce; a nil logs plays it untimed.
func (st *editState) play(round []step, r *report, logs *editLogs) error {
	first := st.expectRow == nil
	if first {
		st.expectRow = make([]core.Comparison, len(round))
		st.expectRun = make([][]byte, len(round))
		st.sentAt = make([]int, len(round))
	}
	for i, s := range round {
		path := "/v1/edit"
		if s.kind == stepRun {
			path = "/v1/run"
		}
		var body []byte
		send := func() (err error) {
			body, err = st.d.post(path, s.body)
			return err
		}
		var kind *opLog
		var err error
		if logs == nil {
			err = send()
		} else {
			kind = logs.of(s.kind)
			err = kind.time(send)
			r.attempted++
		}
		if err != nil {
			if logs == nil {
				return err
			}
			r.failed++
			r.notef("failed: %v", err)
			continue
		}
		if s.kind == stepRun {
			if logs != nil {
				kind.done(st.gates[runBench])
			}
			if first {
				st.expectRun[i] = body
			} else if !bytes.Equal(body, st.expectRun[i]) {
				r.check(fmt.Errorf("/v1/run step %d: response bytes differ from the first round's", i))
			}
			continue
		}
		var resp service.EditResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("step %d: decode edit response: %w", i, err)
		}
		if resp.Status != http.StatusOK || resp.Delta == nil || resp.Manifest == nil || resp.Manifest.Incr == nil {
			r.check(fmt.Errorf("step %d: edit response status %d without a clean delta and manifest", i, resp.Status))
			continue
		}
		st.sent[s.sess] = append(st.sent[s.sess], s.edit)
		st.last[s.sess] = resp.Row
		if logs != nil {
			kind.done(resp.Row.Gates)
			inc, prev := *resp.Manifest.Incr, st.incr[s.sess]
			logs.gatesResimulated += inc.GatesResimulated - prev.GatesResimulated
			logs.conesRepropagated += inc.ConesRepropagated - prev.ConesRepropagated
			logs.fullRebuilds += inc.FullRebuilds - prev.FullRebuilds
		}
		st.incr[s.sess] = *resp.Manifest.Incr
		if first {
			st.expectRow[i] = resp.Row
			st.sentAt[i] = len(st.sent[s.sess])
		} else {
			r.check(sameRow(resp.Row, st.expectRow[i]))
		}
	}
	return nil
}

// runEditDaemon is the edit_daemon workload: an in-process svtimingd
// serving one closed-loop client that holds two /v1/edit sessions and
// interleaves edits, condition nudges and /v1/run reads.
func runEditDaemon(cfg config) (*report, error) {
	r := newReport()
	names := []string{runBench}
	for _, s := range editSessions {
		names = append(names, s.bench)
	}
	gates, _, err := circuitGates(names)
	if err != nil {
		return nil, err
	}
	round, err := buildRound(cfg.seed)
	if err != nil {
		return nil, err
	}
	var reg *obs.Registry
	if cfg.trace {
		reg = obs.New(obs.WithClockFunc(expt.Now))
	}

	st, setup, err := repeatSetup(setupReps, func() (*editState, func(), error) {
		d, err := startDaemon(reg)
		if err != nil {
			return nil, nil, err
		}
		st := &editState{
			d:     d,
			gates: gates,
			sent:  make([][]incr.Edit, len(editSessions)),
			last:  make([]core.Comparison, len(editSessions)),
			incr:  make([]obs.IncrStats, len(editSessions)),
		}
		for si, spec := range editSessions {
			body, err := d.post("/v1/edit", mustJSON(editBody{Benchmarks: []string{spec.bench}, Create: true}))
			if err != nil {
				d.stop()
				return nil, nil, fmt.Errorf("open %s session: %w", spec.bench, err)
			}
			var resp service.EditResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				d.stop()
				return nil, nil, err
			}
			st.last[si] = resp.Row
		}
		// The warm state: one untimed round visits every state the timed
		// rounds revisit.
		if err := st.play(round, r, nil); err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("warm-up round: %w", err)
		}
		return st, d.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.d.stop()

	rounds := func(end time.Time, reg *obs.Registry) (*editLogs, error) {
		logs := newEditLogs(reg)
		for expt.Now().Before(end) {
			if err := st.play(round, r, logs); err != nil {
				return nil, err
			}
			logs.rounds++
		}
		return logs, nil
	}

	var logs *editLogs
	if !cfg.trace {
		if logs, err = rounds(cfg.deadline(1), nil); err != nil {
			return nil, err
		}
		r.endToEnd(setup, liveHeapMiB(), logs.rounds, logs.kinds()...)
	} else {
		r.metrics["opc.pitchtable_ms"] = spanMs(reg, "pitchtable") / setupReps
		r.metrics["liberty.characterize_ms"] = spanMs(reg, "characterize") / setupReps
		base, err := rounds(cfg.deadline(0.5), nil)
		if err != nil {
			return nil, err
		}
		tr, err := startTrace("edit_daemon")
		if err != nil {
			return nil, err
		}
		if logs, err = rounds(cfg.deadline(1), reg); err != nil {
			return nil, err
		}
		traced := merge(logs.kinds()...)
		if err := tr.stop(r, traced, merge(base.kinds()...)); err != nil {
			return nil, err
		}
		n := float64(traced.n())
		r.metrics["incr.gates_resimulated"] = float64(logs.gatesResimulated) / n
		r.metrics["incr.cones_repropagated"] = float64(logs.conesRepropagated) / n
		r.metrics["incr.full_rebuilds"] = float64(logs.fullRebuilds) / n
	}
	all := merge(logs.kinds()...)
	r.notef("edit_daemon: %d rounds of %d requests; edit_p50_ms %.4f, edit_p90_ms %.4f (n=%d); nudge_p50_ms %.4f (n=%d); run_p50_ms %.4f (n=%d); ops_per_s %.1f",
		logs.rounds, len(round),
		median(logs.edit.wallMs), quantile(logs.edit.wallMs, 0.9), logs.edit.n(),
		median(logs.nudge.wallMs), logs.nudge.n(), median(logs.run.wallMs), logs.run.n(),
		float64(all.n())/(sum(all.wallMs)/1000))

	// The oracle: every session's rows must equal a from-scratch rebuild
	// of the edit script the client sent, both at the end and at a
	// perturbed mid-round state.
	oracle, err := oracleFlow()
	if err != nil {
		return nil, err
	}
	for si, spec := range editSessions {
		mid := midStep(round, si)
		checks := []struct {
			edits []incr.Edit
			want  core.Comparison
		}{
			{st.sent[si][:st.sentAt[mid]], st.expectRow[mid]},
			{st.sent[si], st.last[si]},
		}
		for _, c := range checks {
			sess, err := oracle.Rebuild(context.Background(), spec.bench, c.edits)
			if err != nil {
				return nil, fmt.Errorf("rebuild %s: %w", spec.bench, err)
			}
			if err := sameRow(c.want, sess.Row()); err != nil {
				r.check(fmt.Errorf("%s after %d edits: session row differs from its rebuild: %w", spec.bench, len(c.edits), err))
			}
		}
	}
	if cfg.trace {
		if err := inProcessApply(cfg, oracle, round, r, median(logs.edit.wallMs)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// oracleFlow builds a flow the way the daemon builds its own for a
// default request.
func oracleFlow() (*core.Flow, error) {
	req := core.Request{Benchmarks: []string{runBench}}
	opts, err := req.ConstructionOptions()
	if err != nil {
		return nil, err
	}
	fl, err := core.NewFlow(append(opts, core.WithParallelism(workers))...)
	if err != nil {
		return nil, err
	}
	return fl, req.Bind(fl)
}

// midStep returns the first round's shuttle step for session si nearest
// the middle of the round: a state in which the session is perturbed.
func midStep(round []step, si int) int {
	best := -1
	for i, s := range round {
		if s.sess == si && s.out && (best < 0 || abs(i-len(round)/2) < abs(best-len(round)/2)) {
			best = i
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// inProcessApply applies the round's edits to in-process core.Sessions,
// without HTTP, and reports the median geometric edit's Apply time and
// the service's share of the round trip.
func inProcessApply(cfg config, fl *core.Flow, round []step, r *report, roundTripMs float64) error {
	ctx := context.Background()
	sessions := make([]*core.Session, len(editSessions))
	for si, spec := range editSessions {
		s, err := fl.Begin(ctx, spec.bench)
		if err != nil {
			return err
		}
		sessions[si] = s
	}
	var apply []float64
	end := time.Time{}
	for pass := 0; pass == 0 || expt.Now().Before(end); pass++ {
		for _, s := range round {
			if s.kind == stepRun {
				continue
			}
			t := expt.Now()
			if _, err := sessions[s.sess].Apply(ctx, s.edit); err != nil {
				return fmt.Errorf("in-process apply: %w", err)
			}
			if pass > 0 && s.kind == stepEdit {
				apply = append(apply, msSince(t))
			}
		}
		if pass == 0 {
			// The first pass warms the caches, as the daemon's warm-up does.
			end = cfg.deadline(0.5)
		}
	}
	r.metrics["core.apply_ms"] = median(apply)
	r.metrics["service.overhead_ms"] = roundTripMs - median(apply)
	return nil
}

package race

import (
	"encoding/json"
	"strings"
	"testing"

	"localdrf/internal/core"
	"localdrf/internal/explore"
	"localdrf/internal/prog"
)

// mpGuarded is the properly-synchronised message-passing program: the
// reader only touches x after observing the flag.
func mpGuarded() *prog.Program {
	return prog.NewProgram("MP-guarded").
		Vars("x").
		Atomics("F").
		Thread("P0").StoreI("x", 1).StoreI("F", 1).Done().
		Thread("P1").
		Load("r0", "F").
		JmpZ("r0", "skip").
		Load("r1", "x").
		Label("skip").
		Done().
		MustBuild()
}

// mpUnguarded reads x unconditionally, racing when the flag was not seen.
func mpUnguarded() *prog.Program {
	return prog.NewProgram("MP-unguarded").
		Vars("x").
		Atomics("F").
		Thread("P0").StoreI("x", 1).StoreI("F", 1).Done().
		Thread("P1").Load("r0", "F").Load("r1", "x").Done().
		MustBuild()
}

func TestHappensBeforeProgramOrder(t *testing.T) {
	p := prog.NewProgram("po").
		Vars("x", "y").
		Thread("P0").StoreI("x", 1).StoreI("y", 1).Done().
		MustBuild()
	err := explore.Traces(p, explore.Options{}, 0, func(tr explore.Trace) bool {
		hb := HappensBefore(tr)
		if !hb.Has(0, 1) {
			t.Errorf("program order not in hb for trace %v", tr)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHappensBeforeAtomicSync(t *testing.T) {
	// In any trace of MP-guarded where the write to F precedes the read of
	// F, the write of x must happen-before the read of x (transitively).
	err := explore.Traces(mpGuarded(), explore.Options{}, 0, func(tr explore.Trace) bool {
		hb := HappensBefore(tr)
		var wx, rx, wf, rf = -1, -1, -1, -1
		for i, s := range tr {
			switch {
			case s.Loc == "x" && s.IsWrite:
				wx = i
			case s.Loc == "x" && !s.IsWrite:
				rx = i
			case s.Loc == "F" && s.IsWrite:
				wf = i
			case s.Loc == "F" && !s.IsWrite:
				rf = i
			}
		}
		if wx >= 0 && rx >= 0 && wf < rf && tr[rf].Val == 1 {
			if !hb.Has(wx, rx) {
				t.Errorf("wx !hb rx despite flag sync in %v", tr)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRacingPairsDetectsRace(t *testing.T) {
	p := prog.NewProgram("racy").
		Vars("x").
		Thread("P0").StoreI("x", 1).Done().
		Thread("P1").Load("r0", "x").Done().
		MustBuild()
	found := false
	err := explore.Traces(p, explore.Options{}, 0, func(tr explore.Trace) bool {
		if HasRace(tr) {
			found = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("unsynchronised write/read should race")
	}
}

func TestReadsDoNotRace(t *testing.T) {
	p := prog.NewProgram("rr").
		Vars("x").
		Thread("P0").Load("r0", "x").Done().
		Thread("P1").Load("r1", "x").Done().
		MustBuild()
	err := explore.Traces(p, explore.Options{}, 0, func(tr explore.Trace) bool {
		if HasRace(tr) {
			t.Errorf("concurrent reads reported racing in %v", tr)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomicsNeverRace(t *testing.T) {
	p := prog.NewProgram("at").
		Atomics("X").
		Thread("P0").StoreI("X", 1).Done().
		Thread("P1").StoreI("X", 2).Done().
		MustBuild()
	err := explore.Traces(p, explore.Options{}, 0, func(tr explore.Trace) bool {
		if HasRace(tr) {
			t.Errorf("atomic accesses reported racing in %v", tr)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsSCRaceFree(t *testing.T) {
	free, err := IsSCRaceFree(mpGuarded(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !free {
		t.Error("MP-guarded should be SC-race-free")
	}
	free, err = IsSCRaceFree(mpUnguarded(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if free {
		t.Error("MP-unguarded should race (unconditional read of x)")
	}
}

func TestFindRacesReportsLocation(t *testing.T) {
	reports, err := FindRaces(mpUnguarded(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no races reported")
	}
	for _, r := range reports {
		if r.Loc != "x" {
			t.Errorf("race on %s, want x", r.Loc)
		}
		if !strings.Contains(r.String(), "race on x") {
			t.Errorf("report string %q", r.String())
		}
	}
}

// Thm. 14 (global DRF): race-free programs have only SC behaviour.
func TestGlobalDRFTheorem(t *testing.T) {
	progs := []*prog.Program{
		mpGuarded(),
		prog.NewProgram("SB-at").
			Atomics("X", "Y").
			Thread("P0").StoreI("X", 1).Load("r0", "Y").Done().
			Thread("P1").StoreI("Y", 1).Load("r1", "X").Done().
			MustBuild(),
		prog.NewProgram("seq").
			Vars("x", "y").
			Thread("P0").StoreI("x", 1).Load("r0", "x").StoreI("y", 2).Done().
			MustBuild(),
	}
	for _, p := range progs {
		if err := CheckGlobalDRF(p, 0); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestGlobalDRFPremiseRejected(t *testing.T) {
	err := CheckGlobalDRF(mpUnguarded(), 0)
	if err == nil || !strings.Contains(err.Error(), "not SC-race-free") {
		t.Errorf("racy program should fail the premise, got %v", err)
	}
}

// The initial state is always L-stable: there are no transitions before it
// to race with.
func TestInitialStateAlwaysLStable(t *testing.T) {
	for _, p := range []*prog.Program{mpGuarded(), mpUnguarded()} {
		stable, err := LStable(p, core.NewMachine(p), AllLocs(p), 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !stable {
			t.Errorf("%s: initial state must be L-stable", p.Name)
		}
	}
}

// A state in the middle of a race is not stable for the raced location.
func TestMidRaceStateNotStable(t *testing.T) {
	p := prog.NewProgram("midrace").
		Vars("x").
		Thread("P0").StoreI("x", 1).Done().
		Thread("P1").Load("r0", "x").Done().
		MustBuild()
	m := core.NewMachine(p)
	steps, err := m.StepsOf(0)
	if err != nil {
		t.Fatal(err)
	}
	mid := steps[0].After // after the write, before the read
	stable, err := LStable(p, mid, NewLocSet("x"), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stable {
		t.Error("state between racing write and read should not be x-stable")
	}
}

// The same mid-write state is stable for a location not involved in the
// race: races are bounded in space.
func TestMidRaceStateStableForOtherLocation(t *testing.T) {
	p := prog.NewProgram("midrace2").
		Vars("x", "y").
		Thread("P0").StoreI("x", 1).Done().
		Thread("P1").Load("r0", "x").Done().
		MustBuild()
	m := core.NewMachine(p)
	steps, err := m.StepsOf(0)
	if err != nil {
		t.Fatal(err)
	}
	mid := steps[0].After
	stable, err := LStable(p, mid, NewLocSet("y"), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Error("race on x must not destroy y-stability")
	}
}

// Thm. 13 holds from the initial state of every small program we throw at
// it, for several choices of L.
func TestLocalDRFTheoremFromInitial(t *testing.T) {
	progs := []*prog.Program{
		mpGuarded(),
		mpUnguarded(),
		prog.NewProgram("WW").
			Vars("x", "y").
			Thread("P0").StoreI("x", 1).StoreI("y", 1).Done().
			Thread("P1").StoreI("y", 2).Load("r0", "x").Done().
			MustBuild(),
	}
	for _, p := range progs {
		for _, L := range []LocSet{AllLocs(p), NewLocSet("x"), NewLocSet("y"), {}} {
			m := core.NewMachine(p)
			stable, err := LStable(p, m, L, 4_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !stable {
				t.Fatalf("%s: initial state not L-stable", p.Name)
			}
			if err := CheckLocalDRFFrom(m, L, 4_000_000); err != nil {
				t.Errorf("%s, L=%v: %v", p.Name, L, err)
			}
		}
	}
}

// Full sweep of thm. 13 over all reachable L-stable states of a tiny racy
// program.
func TestLocalDRFTheoremAllStates(t *testing.T) {
	p := prog.NewProgram("sweep").
		Vars("x", "y").
		Thread("P0").StoreI("x", 1).Done().
		Thread("P1").Load("r0", "x").StoreI("y", 1).Done().
		MustBuild()
	for _, L := range []LocSet{AllLocs(p), NewLocSet("x"), NewLocSet("y")} {
		if err := CheckLocalDRF(p, L, 6_000_000); err != nil {
			t.Errorf("L=%v: %v", L, err)
		}
	}
}

// The §2.3 intuitive property, as a consequence of local DRF: when the
// reads of a location are properly ordered after all writes to it, two
// reads by one thread agree — even though an unrelated location races.
func TestTwoReadsAgreeDespiteUnrelatedRace(t *testing.T) {
	p := prog.NewProgram("agree").
		Vars("a", "b").
		Atomics("F").
		Thread("P0").StoreI("a", 5).StoreI("F", 1).StoreI("b", 1).Done().
		Thread("P1").
		Load("rF", "F").
		JmpZ("rF", "skip").
		Load("r0", "a").
		Load("r1", "a").
		Label("skip").
		StoreI("b", 2). // races with P0's write to b
		Done().
		MustBuild()
	set, err := explore.Outcomes(p, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok := set.Forall(func(o explore.Outcome) bool {
		if o.Reg(1, "rF") != 1 {
			return true
		}
		return o.Reg(1, "r0") == 5 && o.Reg(1, "r1") == 5
	})
	if !ok {
		t.Error("two ordered reads of a must both return 5 despite the race on b")
	}
}

func TestLSequentialClassification(t *testing.T) {
	weakX := core.Transition{Loc: "x", Weak: true}
	strongX := core.Transition{Loc: "x", Weak: false}
	L := NewLocSet("x")
	if LSequential(weakX, L) {
		t.Error("weak transition on L-location classified L-sequential")
	}
	if !LSequential(strongX, L) {
		t.Error("strong transition classified non-L-sequential")
	}
	if !LSequential(weakX, NewLocSet("y")) {
		t.Error("weak transition outside L should be L-sequential")
	}
}

func TestIsSC(t *testing.T) {
	if !IsSC(explore.Trace{{Weak: false}, {Weak: false}}) {
		t.Error("weak-free trace not SC")
	}
	if IsSC(explore.Trace{{Weak: false}, {Weak: true}}) {
		t.Error("trace with weak transition reported SC")
	}
}

// TestReportsJSON pins the report JSON shape that racemon's goldens and
// racemond's done line share, and that an empty set encodes as [].
func TestReportsJSON(t *testing.T) {
	for _, tc := range []struct {
		reports []Report
		want    string
	}{
		{[]Report{{Loc: "x", ThreadI: 0, ThreadJ: 2, WriteI: true}},
			`[{"loc":"x","thread_i":0,"thread_j":2,"op_i":"write","op_j":"read"}]`},
		{nil, `[]`},
	} {
		got, err := json.Marshal(ReportsJSON(tc.reports))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("ReportsJSON(%v) = %s, want %s", tc.reports, got, tc.want)
		}
	}
}

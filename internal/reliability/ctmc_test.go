package reliability

import (
	"math"
	"testing"
)

func TestCTMCPureDecay(t *testing.T) {
	// Two states, rate λ from 0 to 1: P0(t) = e^{-λt}.
	c := NewCTMC(2)
	c.SetRate(0, 1, 0.5)
	for _, tt := range []float64{0, 0.1, 1, 5, 20} {
		p := c.TransientSolve([]float64{1, 0}, tt, 0)
		want := math.Exp(-0.5 * tt)
		if !almost(p[0], want, 1e-9) {
			t.Fatalf("t=%g: P0=%g, want %g", tt, p[0], want)
		}
		if !almost(p[0]+p[1], 1, 1e-9) {
			t.Fatalf("t=%g: probabilities sum to %g", tt, p[0]+p[1])
		}
	}
}

func TestCTMCBirthDeathSteadyState(t *testing.T) {
	// M/M/1/1: rates 0->1 = a, 1->0 = b; steady state P1 = a/(a+b).
	c := NewCTMC(2)
	a, b := 2.0, 3.0
	c.SetRate(0, 1, a)
	c.SetRate(1, 0, b)
	p := c.TransientSolve([]float64{1, 0}, 100, 0)
	if !almost(p[1], a/(a+b), 1e-6) {
		t.Fatalf("steady P1 = %g, want %g", p[1], a/(a+b))
	}
}

func TestCTMCZeroTime(t *testing.T) {
	c := NewCTMC(3)
	c.SetRate(0, 1, 1)
	p := c.TransientSolve([]float64{0.25, 0.25, 0.5}, 0, 0)
	if p[0] != 0.25 || p[1] != 0.25 || p[2] != 0.5 {
		t.Fatalf("t=0 should return the initial vector, got %v", p)
	}
}

func TestCTMCNoTransitions(t *testing.T) {
	c := NewCTMC(2)
	p := c.TransientSolve([]float64{0.3, 0.7}, 10, 0)
	if p[0] != 0.3 || p[1] != 0.7 {
		t.Fatalf("static chain changed: %v", p)
	}
}

func TestDConnModelReliability(t *testing.T) {
	// Channel re-establishment is much faster than failure (paper: seconds
	// vs 1000-hour MTBF), so R(t) should stay extremely close to 1 for
	// moderate horizons.
	m := DConnModel{Lambda1: 1e-3, Lambda2: 1e-3, Lambda3: 0, Mu: 100}
	r := m.Reliability(10)
	if r < 0.9999 || r > 1 {
		t.Fatalf("R(10) = %g", r)
	}
	// Monotone non-increasing in t.
	prev := 1.0
	for _, tt := range []float64{0, 1, 10, 100, 1000, 10000} {
		r := m.Reliability(tt)
		if r > prev+1e-9 {
			t.Fatalf("R increased at t=%g: %g > %g", tt, r, prev)
		}
		prev = r
	}
}

func TestDConnModelSharedPartDominates(t *testing.T) {
	// With a large shared-part failure rate λ3, the backup barely helps.
	shared := DConnModel{Lambda1: 1e-3, Lambda2: 1e-3, Lambda3: 1e-2, Mu: 10}
	disjoint := DConnModel{Lambda1: 1e-3, Lambda2: 1e-3, Lambda3: 0, Mu: 10}
	if shared.Reliability(100) >= disjoint.Reliability(100) {
		t.Fatal("shared components should reduce reliability")
	}
}

func TestDConnModelRepairRateHelps(t *testing.T) {
	slow := DConnModel{Lambda1: 1e-2, Lambda2: 1e-2, Lambda3: 0, Mu: 0.1}
	fast := DConnModel{Lambda1: 1e-2, Lambda2: 1e-2, Lambda3: 0, Mu: 100}
	if fast.Reliability(100) <= slow.Reliability(100) {
		t.Fatal("faster repair should improve reliability")
	}
}

func TestCTMCvsCombinatorialModel(t *testing.T) {
	// The paper replaces the Markov model with the combinatorial Pr because
	// μ >> λ resets the system each time unit. Check the two agree at first
	// order over one time unit for small λ.
	lambda := 1e-5
	cPrim, cBack := 7, 9
	pr := PrSingleBackup(lambda, cPrim, cBack, 0)
	m := DConnModel{
		Lambda1: float64(cPrim) * lambda,
		Lambda2: float64(cBack) * lambda,
		Lambda3: 0,
		Mu:      1000, // repair far faster than the unit horizon
	}
	rt := m.Reliability(1)
	if math.Abs(pr-rt) > 1e-6 {
		t.Fatalf("combinatorial %v vs Markov %v", pr, rt)
	}
}

func TestCTMCPanics(t *testing.T) {
	c := NewCTMC(2)
	for _, fn := range []func(){
		func() { c.SetRate(0, 0, 1) },
		func() { c.SetRate(0, 1, -1) },
		func() { c.TransientSolve([]float64{1}, 1, 0) },
		func() { c.TransientSolve([]float64{1, 0}, -1, 0) },
		func() { NewCTMC(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkCTMCSolve(b *testing.B) {
	m := DConnModel{Lambda1: 1e-3, Lambda2: 1e-3, Lambda3: 1e-4, Mu: 10}
	c := m.Chain()
	p0 := []float64{1, 0, 0, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.TransientSolve(p0, 100, 0)
	}
}

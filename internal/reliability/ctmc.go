package reliability

import (
	"fmt"
	"math"
)

// CTMC is a continuous-time Markov chain given by its generator matrix Q
// (Q[i][j] is the transition rate i→j for i≠j; diagonal entries are set
// automatically to make row sums zero). It is solved by uniformization,
// the standard technique in Trivedi's text that the paper cites for deriving
// R(t) from the Figure 3 models.
type CTMC struct {
	n int
	q [][]float64
}

// NewCTMC creates a chain with n states and no transitions.
func NewCTMC(n int) *CTMC {
	if n < 1 {
		panic("reliability: CTMC needs at least one state")
	}
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	return &CTMC{n: n, q: q}
}

// SetRate sets the transition rate from state i to state j.
func (c *CTMC) SetRate(i, j int, rate float64) {
	if i == j {
		panic("reliability: diagonal rates are implicit")
	}
	if rate < 0 {
		panic(fmt.Sprintf("reliability: negative rate %g", rate))
	}
	c.q[i][j] = rate
}

// TransientSolve returns the state-probability vector at time t given the
// initial distribution p0, using uniformization with truncation error below
// eps (default 1e-12 when eps <= 0).
func (c *CTMC) TransientSolve(p0 []float64, t float64, eps float64) []float64 {
	if len(p0) != c.n {
		panic("reliability: initial vector size mismatch")
	}
	if t < 0 {
		panic("reliability: negative time")
	}
	if eps <= 0 {
		eps = 1e-12
	}
	// Uniformization rate: q > max exit rate.
	var qmax float64
	exit := make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		var sum float64
		for j := 0; j < c.n; j++ {
			if i != j {
				sum += c.q[i][j]
			}
		}
		exit[i] = sum
		if sum > qmax {
			qmax = sum
		}
	}
	if qmax == 0 || t == 0 {
		out := make([]float64, c.n)
		copy(out, p0)
		return out
	}
	qu := qmax * 1.02
	// Uniformization needs ~qu·t + O(sqrt(qu·t)) Poisson terms; for large
	// horizons split t into chunks and compose the transient solutions.
	const maxLam = 5000.0
	if qu*t > maxLam {
		chunks := int(math.Ceil(qu * t / maxLam))
		dt := t / float64(chunks)
		vec := make([]float64, c.n)
		copy(vec, p0)
		for k := 0; k < chunks; k++ {
			vec = c.TransientSolve(vec, dt, eps)
		}
		return vec
	}
	// DTMC: P = I + Q/qu.
	p := make([][]float64, c.n)
	for i := range p {
		p[i] = make([]float64, c.n)
		for j := 0; j < c.n; j++ {
			if i == j {
				p[i][j] = 1 - exit[i]/qu
			} else {
				p[i][j] = c.q[i][j] / qu
			}
		}
	}
	// result = Σ_k Poisson(qu·t, k) · p0·P^k
	lam := qu * t
	vec := make([]float64, c.n)
	copy(vec, p0)
	out := make([]float64, c.n)
	// Poisson terms computed iteratively; start at k=0.
	logTerm := -lam // ln of Poisson pmf at k=0
	var accumulated float64
	next := make([]float64, c.n)
	for k := 0; ; k++ {
		w := math.Exp(logTerm)
		for i := range out {
			out[i] += w * vec[i]
		}
		accumulated += w
		if 1-accumulated < eps && k > int(lam) {
			break
		}
		if k > 100000 {
			break // safety net for enormous qu·t
		}
		// vec = vec · P
		for j := 0; j < c.n; j++ {
			var s float64
			for i := 0; i < c.n; i++ {
				s += vec[i] * p[i][j]
			}
			next[j] = s
		}
		copy(vec, next)
		logTerm += math.Log(lam) - math.Log(float64(k+1))
	}
	// Normalize the truncation remainder away.
	var sum float64
	for _, v := range out {
		sum += v
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// DConnModel is the Figure 3(a) Markov model of a D-connection with a single
// backup. States:
//
//	0: both channels healthy (initial)
//	1: primary failed, under repair
//	2: backup failed, under repair
//	3: service lost (absorbing)
//
// Lambda1 and Lambda2 are the failure rates of the primary and backup's
// non-shared parts, Lambda3 the failure rate of the part shared by both
// channels (shared components take the connection straight to state 3), and
// Mu the channel repair (re-establishment) rate.
type DConnModel struct {
	Lambda1, Lambda2, Lambda3, Mu float64
}

// Chain builds the CTMC for the model.
func (m DConnModel) Chain() *CTMC {
	c := NewCTMC(4)
	c.SetRate(0, 1, m.Lambda1)
	c.SetRate(0, 2, m.Lambda2)
	c.SetRate(0, 3, m.Lambda3)
	c.SetRate(1, 0, m.Mu)
	c.SetRate(1, 3, m.Lambda2+m.Lambda3) // backup is the only channel left
	c.SetRate(2, 0, m.Mu)
	c.SetRate(2, 3, m.Lambda1+m.Lambda3)
	return c
}

// Reliability returns R(t) = 1 − P(absorbing state 3 at time t), starting
// from state 0.
func (m DConnModel) Reliability(t float64) float64 {
	c := m.Chain()
	p := c.TransientSolve([]float64{1, 0, 0, 0}, t, 0)
	return 1 - p[3]
}

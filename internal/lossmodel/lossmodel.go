// Package lossmodel implements the stochastic loss processes used by the
// PlanetLab-style Internet path model and by the analysis layer: Bernoulli
// (independent) loss, the two-state Gilbert–Elliott Markov chain, and
// maximum-likelihood fitting of GE parameters from an observed binary loss
// sequence. The paper's Internet measurements show loss clustering well
// beyond what independent loss can produce; GE is the standard minimal
// model of such clustering.
package lossmodel

import (
	"fmt"
	"math/rand"
)

// Process decides, packet by packet, whether a transmission is lost. All
// implementations are deterministic given their seeded *rand.Rand.
type Process interface {
	// Lost reports whether the next packet is lost, advancing the process.
	Lost() bool
}

// Bernoulli loses each packet independently with probability P.
type Bernoulli struct {
	P   float64
	rng *rand.Rand
}

// NewBernoulli builds an independent-loss process.
func NewBernoulli(p float64, rng *rand.Rand) *Bernoulli {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("lossmodel: bernoulli p=%v outside [0,1]", p))
	}
	if rng == nil {
		panic("lossmodel: nil rng")
	}
	return &Bernoulli{P: p, rng: rng}
}

// Lost implements Process.
func (b *Bernoulli) Lost() bool { return b.rng.Float64() < b.P }

// GEState is a Gilbert–Elliott chain state.
type GEState uint8

// The two chain states.
const (
	Good GEState = iota
	Bad
)

func (s GEState) String() string {
	if s == Good {
		return "good"
	}
	return "bad"
}

// GilbertElliott is the classic two-state Markov loss model: a Good state
// with loss probability KGood (usually ≈0) and a Bad state with loss
// probability KBad (high). PGB is the per-packet probability of moving
// Good→Bad; PBG of moving Bad→Good. Mean bad-burst length is 1/PBG packets,
// which — relative to how many packets cross the path per RTT — controls
// exactly the sub-RTT clustering the paper measures.
type GilbertElliott struct {
	PGB, PBG    float64
	KGood, KBad float64

	state GEState
	rng   *rand.Rand
}

// GEParams bundles the four chain parameters.
type GEParams struct {
	PGB, PBG, KGood, KBad float64
}

// Validate checks all probabilities are in [0,1] and the chain can move.
func (p GEParams) Validate() error {
	for name, v := range map[string]float64{
		"PGB": p.PGB, "PBG": p.PBG, "KGood": p.KGood, "KBad": p.KBad,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("lossmodel: %s=%v outside [0,1]", name, v)
		}
	}
	return nil
}

// StationaryBad returns the stationary probability of the Bad state,
// PGB/(PGB+PBG). A frozen chain (both transition probabilities zero)
// reports 0.
func (p GEParams) StationaryBad() float64 {
	den := p.PGB + p.PBG
	if den == 0 {
		return 0
	}
	return p.PGB / den
}

// MeanLossRate returns the long-run per-packet loss probability of the
// chain.
func (p GEParams) MeanLossRate() float64 {
	pb := p.StationaryBad()
	return pb*p.KBad + (1-pb)*p.KGood
}

// MeanBurstLen returns the mean Bad-state dwell time in packets (1/PBG).
func (p GEParams) MeanBurstLen() float64 {
	if p.PBG == 0 {
		return 0
	}
	return 1 / p.PBG
}

// NewGilbertElliott builds the chain starting in the Good state.
func NewGilbertElliott(params GEParams, rng *rand.Rand) *GilbertElliott {
	if rng == nil {
		panic("lossmodel: nil rng")
	}
	g := &GilbertElliott{rng: rng}
	g.configure(params)
	return g
}

// State exposes the current chain state (for tests and instrumentation).
func (g *GilbertElliott) State() GEState { return g.state }

// Reset rewinds the chain to the Good state, retakes the parameters and
// reseeds its random stream in place, making the process bit-identical to
// NewGilbertElliott(params, rand.New(rand.NewSource(seed))) without
// reallocating — the hook world-reset paths use to rewind link loss.
func (g *GilbertElliott) Reset(params GEParams, seed int64) {
	g.configure(params)
	g.rng.Seed(seed)
}

// configure puts the chain in the Good state with the given parameters,
// keeping only the random generator.
func (g *GilbertElliott) configure(params GEParams) {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	*g = GilbertElliott{
		PGB: params.PGB, PBG: params.PBG,
		KGood: params.KGood, KBad: params.KBad,
		state: Good, rng: g.rng,
	}
}

// Lost implements Process: advance the chain one packet and report loss.
func (g *GilbertElliott) Lost() bool {
	// Transition first, then emit according to the new state. (Emitting
	// before transitioning is the other common convention; either works as
	// long as fitting uses the same one. We transition first.)
	switch g.state {
	case Good:
		if g.rng.Float64() < g.PGB {
			g.state = Bad
		}
	case Bad:
		if g.rng.Float64() < g.PBG {
			g.state = Good
		}
	}
	k := g.KGood
	if g.state == Bad {
		k = g.KBad
	}
	return g.rng.Float64() < k
}

// Params returns the chain's parameters.
func (g *GilbertElliott) Params() GEParams {
	return GEParams{PGB: g.PGB, PBG: g.PBG, KGood: g.KGood, KBad: g.KBad}
}

// Generate runs the process for n packets and returns the loss indicator
// sequence (true = lost).
func Generate(p Process, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = p.Lost()
	}
	return out
}

// BurstLengths extracts the lengths of consecutive-loss runs from a loss
// indicator sequence. Independent loss yields geometric lengths with mean
// 1/(1-p); GE with a sticky Bad state yields much longer runs.
func BurstLengths(losses []bool) []int {
	var out []int
	run := 0
	for _, l := range losses {
		if l {
			run++
		} else if run > 0 {
			out = append(out, run)
			run = 0
		}
	}
	if run > 0 {
		out = append(out, run)
	}
	return out
}

// LossRate reports the fraction of lost packets in a sequence.
func LossRate(losses []bool) float64 {
	if len(losses) == 0 {
		return 0
	}
	n := 0
	for _, l := range losses {
		if l {
			n++
		}
	}
	return float64(n) / float64(len(losses))
}

// FitGilbert estimates simple-Gilbert parameters (KGood=0, KBad=1: every
// Bad packet lost, no Good losses) from a binary loss sequence, using the
// run-length method: PBG = 1/mean(burst length), PGB = 1/mean(gap length).
// This is the standard estimator used when analyzing probe traces; it is
// exact for the simple Gilbert model and a good approximation otherwise.
// It returns an error when the sequence contains no losses or no gaps.
func FitGilbert(losses []bool) (GEParams, error) {
	bursts := BurstLengths(losses)
	if len(bursts) == 0 {
		return GEParams{}, fmt.Errorf("lossmodel: no losses to fit")
	}
	// Gap lengths: runs of successes between losses.
	inverted := make([]bool, len(losses))
	for i, l := range losses {
		inverted[i] = !l
	}
	gaps := BurstLengths(inverted)
	if len(gaps) == 0 {
		return GEParams{}, fmt.Errorf("lossmodel: no gaps to fit")
	}
	meanBurst := meanInts(bursts)
	meanGap := meanInts(gaps)
	p := GEParams{PGB: 1 / meanGap, PBG: 1 / meanBurst, KGood: 0, KBad: 1}
	return p, nil
}

func meanInts(xs []int) float64 {
	var s int
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

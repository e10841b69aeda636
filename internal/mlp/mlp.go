// Package mlp implements a small, dependency-free multi-layer perceptron
// with an arbitrary number of independent softmax output heads.
//
// The Odin OU-configuration policy (paper §III.A) is "a multi-output MLP
// classifier ... one input layer (4 neurons) with the ReLU activation and two
// separate output layers (6 neurons each) with the softmax activation": a
// shared ReLU trunk feeding two 6-way heads that independently classify the
// OU height level (R) and width level (C). Go has no ML ecosystem to lean
// on, so the full stack — forward pass, backprop, cross-entropy over multiple
// heads, SGD with momentum, and Adam — is implemented here from scratch and
// verified against numerical gradients in the tests.
package mlp

import (
	"fmt"
	"math"

	"odin/internal/mat"
	"odin/internal/rng"
)

// Config describes a network: InputDim inputs, a ReLU hidden trunk with the
// given widths, and one linear+softmax head per entry of Heads.
type Config struct {
	InputDim int
	Hidden   []int // hidden layer widths; may be empty (linear heads on input)
	Heads    []int // output class counts, one per head; must be non-empty
	Seed     uint64
}

func (c Config) validate() error {
	if c.InputDim <= 0 {
		return fmt.Errorf("mlp: InputDim must be positive, got %d", c.InputDim)
	}
	if len(c.Heads) == 0 {
		return fmt.Errorf("mlp: at least one output head required")
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("mlp: hidden layer %d has non-positive width %d", i, h)
		}
	}
	for i, h := range c.Heads {
		if h <= 0 {
			return fmt.Errorf("mlp: head %d has non-positive class count %d", i, h)
		}
	}
	return nil
}

// linear is a fully connected layer y = W·x + b.
type linear struct {
	W *mat.Dense
	B []float64
}

func newLinear(in, out int, src *rng.Source) *linear {
	l := &linear{W: mat.NewDense(out, in), B: make([]float64, out)}
	// He initialisation, appropriate for ReLU trunks.
	scale := math.Sqrt(2.0 / float64(in))
	for i := range l.W.Data {
		l.W.Data[i] = src.NormFloat64() * scale
	}
	return l
}

func (l *linear) clone() *linear {
	c := &linear{W: l.W.Clone(), B: make([]float64, len(l.B))}
	copy(c.B, l.B)
	return c
}

// Network is a trained or trainable MLP. Create one with New; the zero value
// is not usable.
//
// A Network is single-owner: it is not safe for concurrent use, not even
// for Predict/Classify, because every call computes in a scratch workspace
// owned by the network (and Train mutates the weights). Give each
// goroutine its own Network, e.g. a Clone.
type Network struct {
	cfg Config
	// layers holds the trunk followed by the heads; trunk and heads are
	// views of it, so one walk visits every parameter in Parameters order.
	layers []*linear
	trunk  []*linear
	heads  []*linear
	ws     *workspace // built by the first forward pass, never by New
}

// workspace is the scratch memory every forward pass, backward pass and
// parameter update writes into, so that Train, Predict and Classify
// allocate nothing once it exists. Forward-pass buffers are built by the
// first prediction; training state is added by the first Train or
// Gradients, so a network that only predicts never carries gradients.
type workspace struct {
	acts    [][]float64 // acts[0] is the caller's input (never written); acts[i+1] is trunk layer i's ReLU output
	logits  [][]float64 // per-head logits; Predict, Loss and training softmax them in place
	classes []int       // Classify's result

	// Training state, nil until the first Train or Gradients.
	dTop   []float64   // ∂loss/∂(trunk output), summed over heads
	back   []float64   // one head's contribution to dTop
	deltas [][]float64 // deltas[i]: ∂loss/∂(trunk layer i output); dTop stands in for the last
	grad   []*linear   // per-batch gradient sums, aligned with Network.layers
	vel    []*linear   // SGD momentum, zeroed at the start of every Train
	m1, m2 []*linear   // Adam moments, zeroed at the start of every Train
	order  []int       // the epoch's example permutation
}

// floats carves consecutive windows of the given lengths out of one
// allocation.
func floats(lens ...int) [][]float64 {
	total := 0
	for _, l := range lens {
		total += l
	}
	flat := make([]float64, total)
	out := make([][]float64, len(lens))
	for i, l := range lens {
		out[i], flat = flat[:l:l], flat[l:]
	}
	return out
}

// workspace returns the network's forward-pass workspace, building it on
// first use.
func (n *Network) workspace() *workspace {
	if n.ws == nil {
		lens := append(append([]int{0}, n.cfg.Hidden...), n.cfg.Heads...)
		bufs := floats(lens...)
		n.ws = &workspace{
			acts:    bufs[:len(n.trunk)+1],
			logits:  bufs[len(n.trunk)+1:],
			classes: make([]int, len(n.heads)),
		}
	}
	return n.ws
}

// trainWorkspace returns the workspace with its gradient and back-prop
// buffers built.
func (n *Network) trainWorkspace() *workspace {
	ws := n.workspace()
	if ws.grad == nil {
		top := n.heads[0].W.Cols // trunk output width (InputDim without a trunk)
		bufs := floats(append([]int{top, top}, n.cfg.Hidden...)...)
		ws.dTop, ws.back, ws.deltas = bufs[0], bufs[1], bufs[2:]
		ws.grad = n.zeroed(nil)
	}
	return ws
}

// zeroed returns gs (parameter-shaped buffers aligned with n.layers) reset
// to zero, building them on first use.
func (n *Network) zeroed(gs []*linear) []*linear {
	if gs == nil {
		gs = make([]*linear, len(n.layers))
		for i, l := range n.layers {
			gs[i] = &linear{W: mat.NewDense(l.W.Rows, l.W.Cols), B: make([]float64, len(l.B))}
		}
		return gs
	}
	for _, g := range gs {
		clear(g.W.Data)
		clear(g.B)
	}
	return gs
}

// assemble builds a network from its layers, trunk first.
func assemble(cfg Config, layers []*linear) *Network {
	nt := len(cfg.Hidden)
	return &Network{cfg: cfg, layers: layers, trunk: layers[:nt:nt], heads: layers[nt:]}
}

// New builds a network with He-initialised weights drawn from the config
// seed. It panics if the config is invalid (a construction-time programming
// error, not a runtime condition).
func New(cfg Config) *Network {
	if err := cfg.validate(); err != nil {
		panic(fmt.Sprintf("mlp: %v", err))
	}
	src := rng.New(cfg.Seed ^ 0x6f64696e6d6c70) // decorrelate from other subsystems
	layers := make([]*linear, 0, len(cfg.Hidden)+len(cfg.Heads))
	in := cfg.InputDim
	for _, h := range cfg.Hidden {
		layers = append(layers, newLinear(in, h, src))
		in = h
	}
	for _, h := range cfg.Heads {
		layers = append(layers, newLinear(in, h, src))
	}
	return assemble(cfg, layers)
}

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// Clone returns an independent deep copy of the network's parameters. The
// copy shares no workspace with n, so it may be handed to another
// goroutine.
func (n *Network) Clone() *Network {
	layers := make([]*linear, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.clone()
	}
	return assemble(n.cfg, layers)
}

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.W.Data) + len(l.B)
	}
	return total
}

// forward runs the network on input, leaving every trunk post-activation in
// ws.acts and the raw logits per head in ws.logits.
func (n *Network) forward(input []float64) *workspace {
	if len(input) != n.cfg.InputDim {
		panic(fmt.Sprintf("mlp: input length %d, want %d", len(input), n.cfg.InputDim))
	}
	ws := n.workspace()
	ws.acts[0] = input
	h := input
	for i, l := range n.trunk {
		z := l.W.MulVec(h, ws.acts[i+1])
		for j := range z {
			z[j] += l.B[j]
			if z[j] < 0 { // ReLU
				z[j] = 0
			}
		}
		h = z
	}
	for k, l := range n.heads {
		z := l.W.MulVec(h, ws.logits[k])
		for j := range z {
			z[j] += l.B[j]
		}
	}
	return ws
}

// Predict returns per-head softmax probability vectors for the input. The
// vectors live in the network's workspace: they are valid until the next
// call on n, so copy them to keep them.
func (n *Network) Predict(input []float64) [][]float64 {
	ws := n.forward(input)
	for _, z := range ws.logits {
		mat.Softmax(z, z)
	}
	return ws.logits
}

// Classify returns the arg-max class per head. The slice lives in the
// network's workspace and is valid until the next call on n.
func (n *Network) Classify(input []float64) []int {
	ws := n.forward(input)
	for k, z := range ws.logits {
		ws.classes[k] = mat.ArgMax(z)
	}
	return ws.classes
}

// Example is one supervised training pair: an input vector and one target
// class index per head.
type Example struct {
	Input   []float64
	Targets []int
}

func (n *Network) checkExample(e Example) error {
	if len(e.Input) != n.cfg.InputDim {
		return fmt.Errorf("mlp: example input length %d, want %d", len(e.Input), n.cfg.InputDim)
	}
	if len(e.Targets) != len(n.cfg.Heads) {
		return fmt.Errorf("mlp: example has %d targets, want %d", len(e.Targets), len(n.cfg.Heads))
	}
	for k, tgt := range e.Targets {
		if tgt < 0 || tgt >= n.cfg.Heads[k] {
			return fmt.Errorf("mlp: head %d target %d out of range [0,%d)", k, tgt, n.cfg.Heads[k])
		}
	}
	return nil
}

// Loss returns the mean (over examples) summed (over heads) cross-entropy.
func (n *Network) Loss(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	var total float64
	for _, e := range examples {
		if err := n.checkExample(e); err != nil {
			panic(fmt.Sprintf("mlp: %v", err))
		}
		ws := n.forward(e.Input)
		for k, z := range ws.logits {
			p := mat.Softmax(z, z)
			total += -math.Log(math.Max(p[e.Targets[k]], 1e-300))
		}
	}
	return total / float64(len(examples))
}

// accumulate adds ∂loss/∂θ for a single example into ws.grad and returns
// that example's loss. The examples themselves are only read.
func (n *Network) accumulate(e Example, ws *workspace) float64 {
	n.forward(e.Input)
	top := ws.acts[len(ws.acts)-1] // trunk output (or raw input when no hidden layers)
	nt := len(n.trunk)

	var loss float64
	// dTop accumulates the gradient flowing back into the trunk output from
	// every head.
	dTop := ws.dTop
	clear(dTop)
	for k, z := range ws.logits {
		p := mat.Softmax(z, z)
		loss += -math.Log(math.Max(p[e.Targets[k]], 1e-300))
		// dLogits = p - onehot(target)
		dz := p
		dz[e.Targets[k]] -= 1
		g := ws.grad[nt+k]
		g.W.AddOuterScaled(1, dz, top)
		for j := range dz {
			g.B[j] += dz[j]
		}
		back := n.heads[k].W.MulVecT(dz, ws.back)
		for j := range dTop {
			dTop[j] += back[j]
		}
	}

	// Backprop through the ReLU trunk.
	d := dTop
	for i := nt - 1; i >= 0; i-- {
		out := ws.acts[i+1]
		for j := range d {
			if out[j] <= 0 { // ReLU derivative
				d[j] = 0
			}
		}
		g := ws.grad[i]
		g.W.AddOuterScaled(1, d, ws.acts[i])
		for j := range d {
			g.B[j] += d[j]
		}
		if i > 0 {
			d = n.trunk[i].W.MulVecT(d, ws.deltas[i-1])
		}
	}
	return loss
}

// Optimizer selects the parameter-update rule used by Train.
type Optimizer int

const (
	// SGD is stochastic gradient descent with momentum.
	SGD Optimizer = iota
	// Adam is the Adam rule (Kingma & Ba) with the usual defaults.
	Adam
)

// TrainOptions configures Train. Zero values get sensible defaults.
type TrainOptions struct {
	Epochs       int       // default 100 (the paper trains the policy 100 epochs per update)
	LearningRate float64   // default 0.05 for SGD, 0.01 for Adam
	Momentum     float64   // SGD momentum, default 0.9
	BatchSize    int       // default: full batch
	L2           float64   // weight decay coefficient, default 0
	Optimizer    Optimizer // default SGD
	Seed         uint64    // shuffling seed, default 1
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = 100
	}
	if o.LearningRate == 0 {
		if o.Optimizer == Adam {
			o.LearningRate = 0.01
		} else {
			o.LearningRate = 0.05
		}
	}
	if o.Momentum == 0 && o.Optimizer == SGD {
		o.Momentum = 0.9
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// TrainStats summarises a Train call.
type TrainStats struct {
	Epochs    int
	FinalLoss float64
	FirstLoss float64
}

// Train fits the network to the examples and reports first/final epoch mean
// loss. Training is deterministic given the options' seed, and each call
// starts its optimizer state (momentum, Adam moments) from zero. The
// examples are only read.
func (n *Network) Train(examples []Example, opts TrainOptions) TrainStats {
	if len(examples) == 0 {
		return TrainStats{}
	}
	for _, e := range examples {
		if err := n.checkExample(e); err != nil {
			panic(fmt.Sprintf("mlp: %v", err))
		}
	}
	opts = opts.withDefaults()
	batch := opts.BatchSize
	if batch <= 0 || batch > len(examples) {
		batch = len(examples)
	}
	ws := n.trainWorkspace()
	switch opts.Optimizer {
	case SGD:
		ws.vel = n.zeroed(ws.vel)
	case Adam:
		ws.m1, ws.m2 = n.zeroed(ws.m1), n.zeroed(ws.m2)
	}
	if cap(ws.order) < len(examples) {
		ws.order = make([]int, len(examples))
	}
	order := ws.order[:len(examples)]
	src := rng.New(opts.Seed)
	stats := TrainStats{Epochs: opts.Epochs}
	adamStep := 0
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		src.PermInto(order)
		var epochLoss float64
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			n.zeroed(ws.grad)
			for _, idx := range order[start:end] {
				epochLoss += n.accumulate(examples[idx], ws)
			}
			scale := 1.0 / float64(end-start)
			switch opts.Optimizer {
			case SGD:
				n.applySGD(ws, scale, opts)
			case Adam:
				adamStep++
				n.applyAdam(ws, scale, adamStep, opts)
			}
		}
		meanLoss := epochLoss / float64(len(examples))
		if epoch == 0 {
			stats.FirstLoss = meanLoss
		}
		stats.FinalLoss = meanLoss
	}
	return stats
}

func (n *Network) applySGD(ws *workspace, scale float64, opts TrainOptions) {
	for i, param := range n.layers {
		grad, v := ws.grad[i], ws.vel[i]
		for k := range param.W.Data {
			dw := grad.W.Data[k]*scale + opts.L2*param.W.Data[k]
			v.W.Data[k] = opts.Momentum*v.W.Data[k] - opts.LearningRate*dw
			param.W.Data[k] += v.W.Data[k]
		}
		for k := range param.B {
			db := grad.B[k] * scale
			v.B[k] = opts.Momentum*v.B[k] - opts.LearningRate*db
			param.B[k] += v.B[k]
		}
	}
}

func (n *Network) applyAdam(ws *workspace, scale float64, step int, opts TrainOptions) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	bc1 := 1 - math.Pow(beta1, float64(step))
	bc2 := 1 - math.Pow(beta2, float64(step))
	for i, param := range n.layers {
		grad, a, b := ws.grad[i], ws.m1[i], ws.m2[i]
		for k := range param.W.Data {
			dw := grad.W.Data[k]*scale + opts.L2*param.W.Data[k]
			a.W.Data[k] = beta1*a.W.Data[k] + (1-beta1)*dw
			b.W.Data[k] = beta2*b.W.Data[k] + (1-beta2)*dw*dw
			param.W.Data[k] -= opts.LearningRate * (a.W.Data[k] / bc1) / (math.Sqrt(b.W.Data[k]/bc2) + eps)
		}
		for k := range param.B {
			db := grad.B[k] * scale
			a.B[k] = beta1*a.B[k] + (1-beta1)*db
			b.B[k] = beta2*b.B[k] + (1-beta2)*db*db
			param.B[k] -= opts.LearningRate * (a.B[k] / bc1) / (math.Sqrt(b.B[k]/bc2) + eps)
		}
	}
}

// Gradients computes the mean analytic gradient over the examples and
// exposes it as flat slices aligned with Parameters(). It exists for
// gradient-check tests and introspection tooling.
func (n *Network) Gradients(examples []Example) []float64 {
	ws := n.trainWorkspace()
	n.zeroed(ws.grad)
	for _, e := range examples {
		n.accumulate(e, ws)
	}
	scale := 1.0 / float64(len(examples))
	flat := make([]float64, 0, n.NumParams())
	for _, l := range ws.grad {
		for _, v := range l.W.Data {
			flat = append(flat, v*scale)
		}
		for _, v := range l.B {
			flat = append(flat, v*scale)
		}
	}
	return flat
}

// Parameters returns pointers to every trainable scalar, in a stable order
// matching Gradients. Mutating the pointed-to values changes the network.
func (n *Network) Parameters() []*float64 {
	out := make([]*float64, 0, n.NumParams())
	for _, l := range n.layers {
		for i := range l.W.Data {
			out = append(out, &l.W.Data[i])
		}
		for i := range l.B {
			out = append(out, &l.B[i])
		}
	}
	return out
}

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/experiments"
	"odin/internal/par"
)

// fig8Epochs is the Fig. 8 experiment's horizon (experiments' default
// horizon: 1000 decision epochs over 1e8 s).
const fig8Epochs = 1000

// fig8Key pins the rendered Fig. 8 table; the experiment takes no seed.
const fig8Key = "sim-fig8"

// fig8Plan is the Fig. 8 computation spelled out through public calls:
// every zoo workload runs the four fixed-OU baselines and a leave-one-out
// bootstrapped Odin controller over the same horizon. The full plan is
// exactly what experiments.Fig8 runs; the tiny plan is the self-test's.
type fig8Plan struct {
	models    []string
	horizon   core.HorizonConfig
	bootstrap core.BootstrapConfig
}

func fullFig8Plan() fig8Plan {
	var names []string
	for _, m := range dnn.AllWorkloads() {
		names = append(names, m.Name)
	}
	return fig8Plan{
		models:    names,
		horizon:   core.HorizonConfig{End: 1e8, Epochs: fig8Epochs},
		bootstrap: core.DefaultBootstrapConfig(),
	}
}

func tinyFig8Plan() fig8Plan {
	bc := core.DefaultBootstrapConfig()
	bc.MaxExamples, bc.Epochs = 50, 5
	return fig8Plan{
		models:    []string{"VGG11"},
		horizon:   core.HorizonConfig{End: 1e8, Epochs: 20},
		bootstrap: bc,
	}
}

// runs is the number of simulated inference runs the plan executes.
func (p fig8Plan) runs() float64 {
	return float64(len(p.models) * (len(core.StandardBaselineSizes()) + 1) * p.horizon.Epochs)
}

// familyOf maps a model name to the leave-one-out family the Fig. 8
// experiment excludes from its bootstrap (experiments' familyOf).
func familyOf(name string) string {
	switch {
	case strings.HasPrefix(name, "VGG"):
		return "VGG"
	case strings.HasPrefix(name, "ResNet"):
		return "ResNet"
	case strings.HasPrefix(name, "Dense"):
		return "DenseNet"
	default:
		return name // ViT, GoogLeNet
	}
}

// fig8Setup is the experiment's input preparation, timed from outside:
// building the zoo and preparing every workload on the platform.
func fig8Setup(p fig8Plan) error {
	sys := core.DefaultSystem()
	for _, name := range p.models {
		m, err := dnn.ByName(name)
		if err != nil {
			return err
		}
		if _, err := sys.Prepare(m); err != nil {
			return err
		}
	}
	return nil
}

// fig8Op runs the Fig. 8 experiment once (through experiments.ByID on the
// full plan; through the public-call plan on the tiny one) and returns
// the rendered table.
func fig8Op(p fig8Plan, tiny bool) (experiments.Fig8Result, []byte, error) {
	var res experiments.Fig8Result
	if tiny {
		r, _, err := redriveFig8(p, nil)
		if err != nil {
			return res, nil, err
		}
		res = r
	} else {
		exp, err := experiments.ByID("fig8")
		if err != nil {
			return res, nil, err
		}
		data, err := exp.Data()
		if err != nil {
			return res, nil, err
		}
		r, ok := data.(experiments.Fig8Result)
		if !ok {
			return res, nil, fmt.Errorf("fig8 data is %T, want experiments.Fig8Result", data)
		}
		res = r
	}
	var buf bytes.Buffer
	res.Render(&buf)
	return res, buf.Bytes(), nil
}

func fig8PinKey(tiny bool) string {
	if tiny {
		return fig8Key + "/tiny"
	}
	return fig8Key
}

func (b *bench) plan() fig8Plan {
	if b.opts.tiny {
		return tinyFig8Plan()
	}
	return fullFig8Plan()
}

// setup_s on sim-fig8 is the median of setupSamples samples, each the
// mean of setupBatch back-to-back set-ups: one set-up takes about 1.5 ms,
// and single samples that short spread from 0.9 to 2 ms within a run.
const (
	setupSamples = 41
	setupBatch   = 10
)

func fig8Measure(b *bench) error {
	p := b.plan()
	var setup []float64
	var ops []sample
	// Repeated set-up doubles as the warm-up: a whole discarded Fig. 8 op
	// would cost as much as the measured one. A GC before each sample
	// keeps collections of earlier garbage out of the millisecond samples.
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		s := b.now()
		for j := 0; j < setupBatch; j++ {
			if err := fig8Setup(p); err != nil {
				return err
			}
		}
		setup = append(setup, (b.now()-s)/setupBatch)
	}
	var last experiments.Fig8Result
	start := b.now()
	for b.more(start, ops) {
		runtime.GC()
		var (
			res   experiments.Fig8Result
			table []byte
			err   error
		)
		ops = append(ops, b.measureOp(func() { res, table, err = fig8Op(p, b.opts.tiny) }))
		if err != nil {
			return err
		}
		key := fig8PinKey(b.opts.tiny)
		b.judge(b.pinProblem(key, fnv64(table), true))
		b.logf("op %d: %.3fs %q checksum=%s", len(ops), ops[len(ops)-1].wall, key, hex(fnv64(table)))
		last = res
	}
	b.logf("models=%d runs_per_op=%.0f workers=%d", len(p.models), p.runs(), par.Workers(0))
	b.endToEnd(setup, ops, p.runs(), "runs")
	b.logf("sim: edp_reduction_16x16=%.6f (paper: 3.9) max_reduction=%.6f", last.MeanReduction["16×16"], last.MaxReduction)
	return nil
}

package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	t.Parallel()
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	t.Parallel()
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/64 identical draws from different seeds", same)
	}
}

func TestNewFromStringStable(t *testing.T) {
	t.Parallel()
	a, b := NewFromString("layer-3"), NewFromString("layer-3")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same label produced different streams")
	}
	c := NewFromString("layer-4")
	if NewFromString("layer-3").Uint64() == c.Uint64() {
		t.Fatal("different labels produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	s := New(99)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	t.Parallel()
	s := New(7)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	t.Parallel()
	s := New(5)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	t.Parallel()
	s := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()
	s := New(3)
	for n := 1; n <= 20; n++ {
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	t.Parallel()
	a, b := New(21), New(21)
	buf := make([]int, 9)
	for round := 0; round < 5; round++ {
		want := a.Perm(len(buf))
		b.PermInto(buf)
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("round %d: PermInto %v, Perm %v", round, buf, want)
			}
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	t.Parallel()
	s := New(13)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	t.Parallel()
	s := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate %v", rate)
	}
}

func TestForkDecorrelates(t *testing.T) {
	t.Parallel()
	parent := New(21)
	a := parent.Fork("a")
	parent2 := New(21)
	b := parent2.Fork("b")
	if a.Uint64() == b.Uint64() {
		t.Fatal("forks with different labels produced identical first draw")
	}
	// Same parent state + same label must reproduce.
	x := New(21).Fork("a")
	y := New(21).Fork("a")
	if x.Uint64() != y.Uint64() {
		t.Fatal("fork not deterministic")
	}
}

func TestZeroValueUsable(t *testing.T) {
	t.Parallel()
	var s Source
	_ = s.Uint64() // must not panic
}

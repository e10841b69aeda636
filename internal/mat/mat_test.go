package mat

import (
	"math"
	"testing"
	"testing/quick"

	"odin/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDenseZeroed(t *testing.T) {
	t.Parallel()
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	t.Parallel()
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDense(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewDense(dims[0], dims[1])
		}()
	}
}

func TestFromRowsAndAt(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("At returned wrong values: %v %v", m.At(0, 2), m.At(1, 0))
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatalf("Set did not stick")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := m.MulVec([]float64{1, -1}, nil)
	want := []float64{-1, -1, -1}
	for i := range want {
		if !almostEq(y[i], want[i], 1e-12) {
			t.Fatalf("MulVec[%d] = %v want %v", i, y[i], want[i])
		}
	}
}

func TestMulVecReusesDst(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{2, 0}, {0, 2}})
	dst := make([]float64, 2)
	got := m.MulVec([]float64{3, 4}, dst)
	if &got[0] != &dst[0] {
		t.Fatal("MulVec did not reuse correctly sized dst")
	}
	if got[0] != 6 || got[1] != 8 {
		t.Fatalf("wrong result %v", got)
	}
}

func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	t.Parallel()
	src := rng.New(7)
	m := NewDense(5, 3)
	for i := range m.Data {
		m.Data[i] = src.NormFloat64()
	}
	x := []float64{0.5, -1.5, 2, 0, 1}
	got := m.MulVecT(x, nil)
	// Explicit transpose multiply.
	want := make([]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			want[j] += m.At(i, j) * x[i]
		}
	}
	for j := range want {
		if !almostEq(got[j], want[j], 1e-12) {
			t.Fatalf("MulVecT[%d] = %v want %v", j, got[j], want[j])
		}
	}
}

func TestAddOuterScaled(t *testing.T) {
	t.Parallel()
	m := NewDense(2, 3)
	m.AddOuterScaled(2, []float64{1, -1}, []float64{1, 2, 3})
	want := [][]float64{{2, 4, 6}, {-2, -4, -6}}
	for i := range want {
		for j := range want[i] {
			if !almostEq(m.At(i, j), want[i][j], 1e-12) {
				t.Fatalf("(%d,%d)=%v want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestAddScaledAndScaleAndZero(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{10, 20}})
	a.AddScaled(0.5, b)
	if a.At(0, 0) != 6 || a.At(0, 1) != 12 {
		t.Fatalf("AddScaled wrong: %v", a.Data)
	}
	a.Scale(2)
	if a.At(0, 0) != 12 || a.At(0, 1) != 24 {
		t.Fatalf("Scale wrong: %v", a.Data)
	}
	a.Zero()
	if a.At(0, 0) != 0 || a.At(0, 1) != 0 {
		t.Fatalf("Zero wrong: %v", a.Data)
	}
}

func TestCloneIsDeep(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 2}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases original data")
	}
}

func TestMaxAbs(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, -7}, {3, 2}})
	if a.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v want 7", a.MaxAbs())
	}
	if NewDense(2, 2).MaxAbs() != 0 {
		t.Fatal("MaxAbs of zero matrix not 0")
	}
}

func TestDot(t *testing.T) {
	t.Parallel()
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Fatalf("Dot = %v want 32", d)
	}
}

func TestAxpyTo(t *testing.T) {
	t.Parallel()
	dst := make([]float64, 2)
	AxpyTo(dst, []float64{1, 2}, 3, []float64{10, 20})
	if dst[0] != 31 || dst[1] != 62 {
		t.Fatalf("AxpyTo = %v", dst)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	t.Parallel()
	f := func(a, b, c float64) bool {
		// Clamp wild quick inputs to something finite.
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 50)
		}
		in := []float64{clamp(a), clamp(b), clamp(c)}
		out := Softmax(in, nil)
		var sum float64
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	t.Parallel()
	in := []float64{1, 2, 3}
	shifted := []float64{101, 102, 103}
	a := Softmax(in, nil)
	b := Softmax(shifted, nil)
	for i := range a {
		if !almostEq(a[i], b[i], 1e-12) {
			t.Fatalf("softmax not shift invariant at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSoftmaxExtremeValuesStable(t *testing.T) {
	t.Parallel()
	out := Softmax([]float64{1000, -1000, 0}, nil)
	if math.IsNaN(out[0]) || !almostEq(out[0], 1, 1e-9) {
		t.Fatalf("softmax overflow not handled: %v", out)
	}
}

func TestArgMax(t *testing.T) {
	t.Parallel()
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Fatal("ArgMax wrong")
	}
	if ArgMax([]float64{2, 2, 2}) != 0 {
		t.Fatal("ArgMax tie should pick first")
	}
}

func TestNorm2(t *testing.T) {
	t.Parallel()
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
}

// Property: MulVec is linear — m·(αx+βy) = α·m·x + β·m·y.
func TestMulVecLinearityProperty(t *testing.T) {
	t.Parallel()
	src := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+src.Intn(8), 1+src.Intn(8)
		m := NewDense(rows, cols)
		for i := range m.Data {
			m.Data[i] = src.NormFloat64()
		}
		x := make([]float64, cols)
		y := make([]float64, cols)
		for i := range x {
			x[i], y[i] = src.NormFloat64(), src.NormFloat64()
		}
		alpha, beta := src.NormFloat64(), src.NormFloat64()
		combo := make([]float64, cols)
		for i := range combo {
			combo[i] = alpha*x[i] + beta*y[i]
		}
		lhs := m.MulVec(combo, nil)
		mx := m.MulVec(x, nil)
		my := m.MulVec(y, nil)
		for i := range lhs {
			want := alpha*mx[i] + beta*my[i]
			if !almostEq(lhs[i], want, 1e-9*(1+math.Abs(want))) {
				t.Fatalf("linearity violated at trial %d idx %d: %v vs %v", trial, i, lhs[i], want)
			}
		}
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec with wrong-length x did not panic")
		}
	}()
	NewDense(2, 3).MulVec([]float64{1, 2}, nil)
}

// mustPanicWith runs fn and fails unless it panics with exactly msg.
func mustPanicWith(t *testing.T, msg string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != msg {
			t.Fatalf("panic = %v, want %q", r, msg)
		}
	}()
	fn()
}

// MulVec and MulVecT write dst while still reading x, so an overlapping
// dst would silently corrupt the result; both refuse it. Disjoint windows
// of one backing array are fine (the MLP workspace relies on that).
func TestMulVecRejectsOverlappingDst(t *testing.T) {
	t.Parallel()
	sq := FromRows([][]float64{{1, 2}, {3, 4}})
	buf := []float64{1, 1, 0, 0, 0}
	mustPanicWith(t, "mat: MulVec dst overlaps x", func() { sq.MulVec(buf[:2], buf[:2]) })
	mustPanicWith(t, "mat: MulVec dst overlaps x", func() { sq.MulVec(buf[:2], buf[1:3]) })
	got := sq.MulVec(buf[:2], buf[2:4])
	if got[0] != 3 || got[1] != 7 || buf[0] != 1 || buf[1] != 1 {
		t.Fatalf("MulVec into a disjoint window = %v (buf %v)", got, buf)
	}
}

func TestMulVecTRejectsOverlappingDst(t *testing.T) {
	t.Parallel()
	sq := FromRows([][]float64{{1, 2}, {3, 4}})
	buf := []float64{1, 1, 0, 0, 0}
	mustPanicWith(t, "mat: MulVecT dst overlaps x", func() { sq.MulVecT(buf[:2], buf[:2]) })
	mustPanicWith(t, "mat: MulVecT dst overlaps x", func() { sq.MulVecT(buf[1:3], buf[:2]) })
	got := sq.MulVecT(buf[:2], buf[3:5])
	if got[0] != 4 || got[1] != 6 || buf[0] != 1 || buf[1] != 1 {
		t.Fatalf("MulVecT into a disjoint window = %v (buf %v)", got, buf)
	}
}

// The row-blocked MulVec must reproduce a plain per-row dot product bit
// for bit at every row count (blocks of four plus a remainder).
func TestMulVecBitIdenticalToRowDot(t *testing.T) {
	t.Parallel()
	src := rng.New(8)
	for rows := 1; rows <= 9; rows++ {
		m := NewDense(rows, 13)
		for i := range m.Data {
			m.Data[i] = src.NormFloat64() * 1e3
		}
		x := make([]float64, 13)
		for i := range x {
			x[i] = src.NormFloat64()
		}
		got := m.MulVec(x, nil)
		for i := 0; i < rows; i++ {
			var s float64
			for j, w := range m.Row(i) {
				s += w * x[j]
			}
			if math.Float64bits(got[i]) != math.Float64bits(s) {
				t.Fatalf("rows=%d row %d: %v, per-row dot %v", rows, i, got[i], s)
			}
		}
	}
}

func TestSoftmaxInPlaceMatchesCopy(t *testing.T) {
	t.Parallel()
	in := []float64{0.3, -2, 7.5, 0, 1e-3}
	want := Softmax(in, nil)
	got := Softmax(in, in)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("in-place softmax[%d] = %v, copy %v", i, got[i], want[i])
		}
	}
}

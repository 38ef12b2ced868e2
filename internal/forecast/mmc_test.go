package forecast

import (
	"math"
	"testing"
)

func TestMMcReducesToMM1(t *testing.T) {
	mc := MMc{Lambda: 0.8, Mu: 1, Servers: 1}
	lqWant := 0.8 * 0.8 / (1 - 0.8) // rho^2/(1-rho) for M/M/1
	lq, err := mc.Lq()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lq-lqWant) > 1e-9 {
		t.Fatalf("M/M/1-as-M/M/c Lq = %g, want %g", lq, lqWant)
	}
}

func TestMMcErlangC(t *testing.T) {
	// Known value: c=2, a=λ/μ=1 (rho=0.5) => ErlangC = 1/3.
	q := MMc{Lambda: 1, Mu: 1, Servers: 2}
	p, err := q.ErlangC()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1.0/3) > 1e-9 {
		t.Fatalf("ErlangC = %g, want 1/3", p)
	}
	// More servers => lower wait probability.
	q3 := MMc{Lambda: 1, Mu: 1, Servers: 3}
	p3, _ := q3.ErlangC()
	if p3 >= p {
		t.Fatalf("ErlangC did not fall with more servers: %g -> %g", p, p3)
	}
}

func TestMMcUnstable(t *testing.T) {
	q := MMc{Lambda: 5, Mu: 1, Servers: 3}
	if q.Stable() {
		t.Fatal("overloaded M/M/c reported stable")
	}
	if _, err := q.Lq(); err == nil {
		t.Fatal("Lq of unstable queue did not error")
	}
	if _, err := q.Wq(); err == nil {
		t.Fatal("Wq of unstable queue did not error")
	}
}

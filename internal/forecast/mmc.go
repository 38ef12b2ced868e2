package forecast

import (
	"errors"
	"time"
)

// MMc summarizes a c-server Markovian queue (one waiting line, c servers);
// a taxi stand with several loading bays behaves this way.
type MMc struct {
	Lambda  float64 // arrival rate (1/s)
	Mu      float64 // per-server service rate (1/s)
	Servers int
}

// Rho returns the per-server utilization λ/(cμ).
func (q MMc) Rho() float64 { return q.Lambda / (float64(q.Servers) * q.Mu) }

// Stable reports whether the queue has a stationary distribution.
func (q MMc) Stable() bool {
	return q.Lambda > 0 && q.Mu > 0 && q.Servers >= 1 && q.Rho() < 1
}

// ErlangC returns the probability an arriving customer must wait
// (the Erlang-C formula).
func (q MMc) ErlangC() (float64, error) {
	if !q.Stable() {
		return 0, errors.New("queueing: M/M/c unstable")
	}
	c := q.Servers
	a := q.Lambda / q.Mu // offered load in Erlangs
	// Compute iteratively to avoid factorial overflow.
	sum := 0.0
	term := 1.0 // a^k / k!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	// term is now a^c / c!
	last := term / (1 - q.Rho())
	return last / (sum + last), nil
}

// Lq returns the stationary mean queue length (waiting, excluding in
// service).
func (q MMc) Lq() (float64, error) {
	pWait, err := q.ErlangC()
	if err != nil {
		return 0, err
	}
	rho := q.Rho()
	return pWait * rho / (1 - rho), nil
}

// Wq returns the stationary mean waiting time (excluding service).
func (q MMc) Wq() (time.Duration, error) {
	lq, err := q.Lq()
	if err != nil {
		return 0, err
	}
	return time.Duration(lq / q.Lambda * float64(time.Second)), nil
}

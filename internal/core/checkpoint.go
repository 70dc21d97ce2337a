package core

import (
	"math"
	"time"

	"repro/internal/defaults"
	"repro/internal/sparse"
)

// checkpointer implements the periodic checkpoint/rollback comparator
// (§4.2): every interval iterations the iterate and search direction —
// "the minimum to allow rolling back" — are written to the (simulated)
// local disk. On a detected DUE the vectors are restored, the residual is
// recomputed from the restored iterate, and execution resumes from the
// checkpointed state. The β scalar lives in reliable memory (the error
// model only kills memory pages, §5.3) and is stored with the checkpoint.
type checkpointer struct {
	disk     *SimDisk
	interval int           // fixed period in iterations; 0 = Young/Daly
	mtbe     time.Duration // expected MTBE for the Young/Daly optimum
	bytes    int

	haveCkpt bool
	lastIter int
	x, d     []float64
	beta     float64
}

func newCheckpointer(disk *SimDisk, interval int, mtbe time.Duration, n int) *checkpointer {
	return &checkpointer{
		disk:     disk,
		interval: interval,
		mtbe:     mtbe,
		bytes:    2 * n * 8, // x and d, float64
		x:        make([]float64, n),
		d:        make([]float64, n),
		lastIter: -1 << 30,
	}
}

// currentInterval returns the checkpoint period in iterations: the fixed
// configuration when given, otherwise the Young/Daly optimum
// T_opt = sqrt(2 * C * MTBE) converted to iterations with the measured
// mean iteration time (Bougeret et al. [5] in the paper).
func (c *checkpointer) currentInterval(iter int, elapsed time.Duration) int {
	if c.interval > 0 {
		return c.interval
	}
	if c.mtbe <= 0 || iter == 0 {
		return defaults.CheckpointInterval
	}
	writeTime := c.disk.WriteTime(c.bytes)
	tOpt := math.Sqrt(2 * writeTime.Seconds() * c.mtbe.Seconds())
	iterTime := elapsed.Seconds() / float64(iter)
	if iterTime <= 0 {
		return defaults.CheckpointInterval
	}
	iv := int(tOpt / iterTime)
	if iv < 1 {
		iv = 1
	}
	return iv
}

// maybeWrite checkpoints at iteration boundaries when the period elapsed.
func (c *checkpointer) maybeWrite(s *CG, iter int, elapsed time.Duration) {
	iv := c.currentInterval(iter, elapsed)
	if iter-c.lastIter < iv && c.haveCkpt {
		return
	}
	c.disk.Write(c.bytes)
	copy(c.x, s.x.Data)
	copy(c.d, s.d[0].Data)
	c.beta = s.beta
	c.haveCkpt = true
	c.lastIter = iter
	s.stats.CheckpointsWritten++
}

// rollback restores the last checkpoint and rebuilds the derived state:
// g = b - A x, z = M⁻¹ g, ε = <g,g>, ρ = <z,g>.
func (c *checkpointer) rollback(s *CG) {
	if !c.haveCkpt {
		// No checkpoint yet: restart from scratch (x = 0).
		for i := range s.x.Data {
			s.x.Data[i] = 0
		}
		for i := range s.d[0].Data {
			s.d[0].Data[i] = 0
		}
		s.beta = 0
		s.restartPending = true
	} else {
		c.disk.Read(c.bytes)
		copy(s.x.Data, c.x)
		copy(s.d[0].Data, c.d)
		s.beta = c.beta
		s.restartPending = false
	}
	s.space.ClearAll()
	// Rebuild the derived vectors from the restored iterate.
	s.a.MulVec(s.x.Data, s.g.Data)
	sparse.Sub(s.b, s.g.Data, s.g.Data)
	if s.pre != nil {
		s.prep.z.Run()
		s.rho = sparse.Dot(s.z.Data, s.g.Data)
	}
	s.epsGG = sparse.Dot(s.g.Data, s.g.Data)
	s.stats.Rollbacks++
}

package core

import (
	"sync"
	"time"
)

// SimDisk models the local scratch disk each processing element writes its
// checkpoints to (§4.2). 2015-era local scratch storage is far slower than
// the NVMe this reproduction runs on, so checkpoint I/O is simulated by a
// bandwidth-throttled sleep; the default bandwidth is tuned so the
// checkpoint-period overheads land in the regime Table 2 reports
// (17.62 % at period 1000, 46.20 % at period 200). A single mutex
// serialises accesses, modelling one disk shared by the node's workers.
type SimDisk struct {
	// BytesPerSecond is the sustained bandwidth of the simulated disk.
	BytesPerSecond float64
	// Latency is the fixed per-operation seek/submit cost.
	Latency time.Duration

	mu           sync.Mutex
	bytesWritten int64
	bytesRead    int64
}

// DefaultDiskBandwidth is the default simulated bandwidth. Its Table 2
// calibration is unrecorded; ROADMAP item 10 (the claims ledger) is where
// it belongs.
const DefaultDiskBandwidth = 30e6 // 30 MB/s

// NewSimDisk builds a simulated disk with the given bandwidth (0 means
// DefaultDiskBandwidth) and a small fixed latency.
func NewSimDisk(bytesPerSecond float64) *SimDisk {
	if bytesPerSecond <= 0 {
		bytesPerSecond = DefaultDiskBandwidth
	}
	return &SimDisk{BytesPerSecond: bytesPerSecond, Latency: 200 * time.Microsecond}
}

// Write blocks for the time a write of n bytes would take and accounts it.
func (d *SimDisk) Write(n int) {
	d.transfer(n, &d.bytesWritten)
}

// Read blocks for the time a read of n bytes would take and accounts it.
func (d *SimDisk) Read(n int) {
	d.transfer(n, &d.bytesRead)
}

func (d *SimDisk) transfer(n int, counter *int64) {
	dur := d.Latency + time.Duration(float64(n)/d.BytesPerSecond*float64(time.Second))
	d.mu.Lock()
	*counter += int64(n)
	d.mu.Unlock()
	time.Sleep(dur)
}

// WriteTime predicts the duration of writing n bytes without performing
// the transfer — used by the Young/Daly checkpoint-interval optimisation.
func (d *SimDisk) WriteTime(n int) time.Duration {
	return d.Latency + time.Duration(float64(n)/d.BytesPerSecond*float64(time.Second))
}

// Stats returns cumulative bytes written and read.
func (d *SimDisk) Stats() (written, read int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytesWritten, d.bytesRead
}

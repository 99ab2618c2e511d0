// Package sim models serial devices for the cluster simulator: a Resource
// (an SSD, a PCIe link, a NIC) serves transfers in submission order at a
// fixed bandwidth, on a virtual clock its callers advance.
package sim

import "fmt"

// Resource is a serial device (an SSD, a PCIe link, a NIC) with a fixed
// bandwidth. Transfers queue FIFO: a transfer submitted at time t starts at
// max(t, device free time) and occupies the device for bytes/bandwidth.
type Resource struct {
	Name        string
	BytesPerSec float64
	freeAt      float64
	busy        float64 // total busy seconds, for utilization accounting
}

// NewResource returns a serial device with the given write bandwidth.
func NewResource(name string, bytesPerSec float64) (*Resource, error) {
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("sim: resource %q bandwidth %v must be positive", name, bytesPerSec)
	}
	return &Resource{Name: name, BytesPerSec: bytesPerSec}, nil
}

// Submit enqueues a transfer of the given bytes at time now and returns its
// completion time. Transfers are served in submission order.
func (r *Resource) Submit(now, bytes float64) (float64, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("sim: negative transfer size %v", bytes)
	}
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	d := bytes / r.BytesPerSec
	r.freeAt = start + d
	r.busy += d
	return r.freeAt, nil
}

// Backlog returns how far beyond now the device is already committed.
func (r *Resource) Backlog(now float64) float64 {
	if r.freeAt <= now {
		return 0
	}
	return r.freeAt - now
}

// BusySeconds returns the total time the device has spent transferring.
func (r *Resource) BusySeconds() float64 { return r.busy }

// Reset clears the device's queue state.
func (r *Resource) Reset() {
	r.freeAt = 0
	r.busy = 0
}

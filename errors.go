package denova

import (
	"errors"

	"denova/internal/layout"
	"denova/internal/nova"
)

// The public error taxonomy. Every namespace and data operation returns one
// of these sentinels, possibly wrapped with context — test with errors.Is,
// never string comparison. The network serving layer maps each sentinel to
// a wire status code 1:1 (internal/server/wire), so a client observes the
// same taxonomy a local caller does.
var (
	// ErrNotFound: the path (or an intermediate component) does not exist.
	ErrNotFound = nova.ErrNotExist
	// ErrExists: creating a name that is already taken.
	ErrExists = nova.ErrExist
	// ErrIsDir: a file operation (read/write/truncate/remove) hit a directory.
	ErrIsDir = nova.ErrIsDir
	// ErrNotDir: a path component (or readdir target) is not a directory.
	ErrNotDir = nova.ErrNotDir
	// ErrNotEmpty: removing a directory that still has entries.
	ErrNotEmpty = nova.ErrNotEmpty
	// ErrNoSpace: the device is out of data blocks or inode slots.
	ErrNoSpace = nova.ErrNoSpace
	// ErrInvalid: malformed argument — bad path syntax, negative offset or
	// size, over-long name.
	ErrInvalid = nova.ErrInvalid
	// ErrStaleHandle: a Handle whose file has been deleted (or whose inode
	// slot was reused) since the handle was issued.
	ErrStaleHandle = nova.ErrStaleHandle
	// ErrRetry: the server shed the request under admission control; the
	// caller should back off and retry. Never returned by the in-process
	// API.
	ErrRetry = errors.New("denova: server busy, retry")
	// ErrCorrupt: Mount found a structurally invalid persistent image —
	// state no crash can leave behind, such as a FACT entry naming a block
	// outside the data region. The wrapped message names the location.
	ErrCorrupt = layout.ErrCorrupt
)

// Deprecated aliases kept for source compatibility with the pre-serving
// API. New code should use the canonical names above.
var (
	// Deprecated: use ErrExists.
	ErrExist = ErrExists
	// Deprecated: use ErrNotFound.
	ErrNotExist = ErrNotFound
)

package kernel

import "errors"

// ErrBadHandle is returned for capability handles that were never issued to
// the calling process, were closed, or outlived their referent.
var ErrBadHandle = errors.New("kernel: bad capability handle")

// ErrCanceled is returned when a context expires before (or while) a
// submission is processed.
var ErrCanceled = errors.New("kernel: operation canceled")

// ErrTimeout is returned when a transport dial, handshake, or I/O
// operation exceeds its configured deadline.
var ErrTimeout = errors.New("kernel: operation timed out")

// ErrAgain is returned when a bounded resource (the per-connection
// in-flight window) is momentarily exhausted; the operation is safe to
// retry once earlier work completes.
var ErrAgain = errors.New("kernel: resource temporarily unavailable")

// Errno is the structured error class of the user↔kernel ABI. Every error
// that crosses the kernel boundary through the Session API carries exactly
// one Errno, so user code can switch on the class instead of matching
// message strings.
type Errno uint8

// The errno taxonomy. Each value maps onto one legacy sentinel error (see
// Error.Is), so errors.Is(err, ErrDenied) and friends keep working on
// errors produced by the typed path.
const (
	EOK        Errno = iota // no error (never carried by an *Error)
	EINVAL                  // malformed argument            ↔ ErrBadArgument
	ESRCH                   // no such process               ↔ ErrNoSuchProcess
	ENOENT                  // no such port or object        ↔ ErrNoSuchPort
	EBADF                   // bad/stale capability handle   ↔ ErrBadHandle
	EACCES                  // authorization denied          ↔ ErrDenied
	ENOGUARD                // goal set but no guard bound   ↔ ErrNoGuard
	EINTEGRITY              // boot integrity failure        ↔ ErrBootIntegrity
	ENOLABEL                // stale or foreign label handle ↔ ErrNoSuchLabel
	ENOAUTH                 // no such authority channel     ↔ ErrNoSuchAuthority
	ECANCELED               // context canceled mid-batch    ↔ ErrCanceled
	ETIMEDOUT               // transport deadline exceeded   ↔ ErrTimeout
	EAGAIN                  // bounded resource exhausted    ↔ ErrAgain
)

// errnoNames are the canonical render of each errno class.
var errnoNames = [...]string{
	EOK:        "EOK",
	EINVAL:     "EINVAL",
	ESRCH:      "ESRCH",
	ENOENT:     "ENOENT",
	EBADF:      "EBADF",
	EACCES:     "EACCES",
	ENOGUARD:   "ENOGUARD",
	EINTEGRITY: "EINTEGRITY",
	ENOLABEL:   "ENOLABEL",
	ENOAUTH:    "ENOAUTH",
	ECANCELED:  "ECANCELED",
	ETIMEDOUT:  "ETIMEDOUT",
	EAGAIN:     "EAGAIN",
}

// String renders the errno name.
func (e Errno) String() string {
	if int(e) < len(errnoNames) {
		return errnoNames[e]
	}
	return "E?"
}

// sentinel returns the legacy sentinel error this class maps onto.
func (e Errno) sentinel() error {
	switch e {
	case EINVAL:
		return ErrBadArgument
	case ESRCH:
		return ErrNoSuchProcess
	case ENOENT:
		return ErrNoSuchPort
	case EBADF:
		return ErrBadHandle
	case EACCES:
		return ErrDenied
	case ENOGUARD:
		return ErrNoGuard
	case EINTEGRITY:
		return ErrBootIntegrity
	case ENOLABEL:
		return ErrNoSuchLabel
	case ENOAUTH:
		return ErrNoSuchAuthority
	case ECANCELED:
		return ErrCanceled
	case ETIMEDOUT:
		return ErrTimeout
	case EAGAIN:
		return ErrAgain
	}
	return nil
}

// Error is the structured error of the ABI: an errno class, the operation
// that failed, and a human-oriented detail. It unwraps to the legacy
// sentinel of its class, so pre-Session call sites that test with
// errors.Is(err, kernel.ErrDenied) observe no change.
type Error struct {
	Errno  Errno
	Op     string // the kernel entry or IPC operation that failed
	Detail string
}

// Error implements the error interface.
func (e *Error) Error() string {
	s := "kernel: " + e.Errno.String()
	if e.Op != "" {
		s += " (" + e.Op + ")"
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// Unwrap exposes the legacy sentinel so errors.Is keeps matching.
func (e *Error) Unwrap() error { return e.Errno.sentinel() }

// Is reports class equality: two ABI errors are "the same" when their
// errnos agree, whatever the detail text.
func (e *Error) Is(target error) bool {
	if t, ok := target.(*Error); ok {
		return t.Errno == e.Errno
	}
	return false
}

// abiErr builds a typed ABI error. It allocates, deliberately: error
// construction is off the warm path by definition.
//
//nexus:alloc-ok
func abiErr(errno Errno, op, detail string) *Error {
	return &Error{Errno: errno, Op: op, Detail: detail}
}

// ErrnoOf extracts the errno class from any error reaching user code: typed
// ABI errors report their class directly, legacy sentinels map onto their
// class, and anything else (handler-level errors passed through verbatim)
// reports EOK, meaning "not a kernel ABI failure".
func ErrnoOf(err error) Errno {
	// A direct *Error, the common case, is classified without errors.As,
	// whose target would move to the heap on every call.
	if e, ok := err.(*Error); ok {
		return e.Errno
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Errno
	}
	for class := EINVAL; class <= EAGAIN; class++ {
		if s := class.sentinel(); s != nil && errors.Is(err, s) {
			return class
		}
	}
	return EOK
}

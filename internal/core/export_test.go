package core

// BreakerKeysOf exposes the breaker keys ("wrapper:<hash>") of the named
// wrappers to the external tests.
func (qf *QFusor) BreakerKeysOf(wrappers []string) []string { return qf.wc.breakerKeys(wrappers) }

package memsys

// PendingLen is the number of persist acks tid's completion set holds.
func (s *System) PendingLen(tid int) int { return s.threads[tid].pending.Len() }

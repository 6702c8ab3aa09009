package optimizer

// Test hooks into the plan-search memo.

// MemoKey is memoKey.
var MemoKey = memoKey

// MemoCap is the number of input sets a Memo holds at most.
const MemoCap = memoSets

// MemoFn is memoFn over int values, and MemoValues the values it keeps.
var MemoFn = memoFn[int]

const MemoValues = memoValues

// MemoSetKeys returns the keys of the input sets m holds, least recently
// used first.
func MemoSetKeys(m *Memo) [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([][]byte, len(m.sets))
	for i, s := range m.sets {
		keys[i] = s.key
	}
	return keys
}

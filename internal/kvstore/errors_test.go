package kvstore

import (
	"testing"

	"speccat/internal/stable"
)

func TestOpenCorruptLog(t *testing.T) {
	st := stable.NewStore()
	st.Append([]byte("{corrupt"))
	if _, err := Open(st); err == nil {
		t.Fatal("corrupt log accepted")
	}
}

func TestDoubleBegin(t *testing.T) {
	s, _ := open(t)
	mustOK(t, s.Begin("t"))
	if err := s.Begin("t"); err == nil {
		t.Fatal("double begin accepted")
	}
}

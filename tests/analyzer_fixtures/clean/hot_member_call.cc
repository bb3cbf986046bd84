// Analyzer fixture — NOT compiled.  Clean twin of bad/hot_member_call.cc:
// the hot kernel calls Note through a member whose declared type is
// KeyTally, whose Note is pure.  AuditJournal::Note shares the name and
// locks; resolving by name alone would walk into it.

class KeyTally {
 public:
  void Note(int key) { sum_ += key; }

 private:
  int sum_ = 0;
};

class AuditJournal {
 public:
  void Note(int key);

 private:
  Mutex mu_;
  int last_ DIDO_GUARDED_BY(mu_) = 0;
};

class MemberKernel {
 public:
  void Run(int key) DIDO_HOT;

 private:
  KeyTally tally_;
};

void AuditJournal::Note(int key) {
  MutexLock lock(mu_);
  last_ = key;
}

void MemberKernel::Run(int key) { tally_.Note(key); }

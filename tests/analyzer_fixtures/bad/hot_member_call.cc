// Analyzer fixture — NOT compiled.  Seeded violation behind a typed member
// call: the hot kernel reaches AuditJournal::Note through `journal_->`, and
// that Note takes a mutex.  Resolving the call by the member's declared
// type must still walk into it.

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
  AuditJournal* journal_ = nullptr;
};

void AuditJournal::Note(int key) {
  MutexLock lock(mu_);  // expect: [hot] mutex acquisition via journal_->
  last_ = key;
}

void MemberKernel::Run(int key) { journal_->Note(key); }

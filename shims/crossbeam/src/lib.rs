//! Offline shim for `crossbeam` covering the surface this workspace uses:
//! [`channel`] (multi-producer multi-consumer unbounded channels, here
//! multi-producer single-consumer over `std::sync::mpsc`, which is the only
//! topology the workspace builds).

/// Unbounded channels with crossbeam's `Sender`/`Receiver` API.
pub mod channel {
    use std::sync::mpsc;

    /// Error returned by [`Sender::send`] when the receiver hung up.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like upstream crossbeam, Debug does not expose the payload and so
    // does not require `T: Debug`.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when all senders hung up.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel is currently empty.
        Empty,
        /// All senders hung up.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline expired with no message.
        Timeout,
        /// All senders hung up.
        Disconnected,
    }

    /// Sending half of an unbounded channel.
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender { inner: self.inner.clone() }
        }
    }

    impl<T> Sender<T> {
        /// Sends a value, failing only if the receiver hung up.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or all senders hang up.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv().map_err(|_| RecvError)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Blocks until a value arrives, the timeout expires, or all
        /// senders hang up.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            self.inner.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Iterates until all senders hang up.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.inner.iter()
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, TryRecvError};
    use std::thread;

    #[test]
    fn channel_roundtrip_across_threads() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let t = thread::spawn(move || {
            tx2.send(7u64).unwrap();
        });
        tx.send(3u64).unwrap();
        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![3, 7]);
        t.join().unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }
}

//! The serve layer's unified error: every way an HTTP request can fail,
//! each with a fixed status code and a JSON body.
//!
//! The quota-vs-backpressure split the front-end is built around lives
//! here as two distinct variants with two distinct status codes:
//!
//! * [`ServeError::Quota`] — **429 Too Many Requests**: *this tenant*
//!   is over one of its admission limits. Other tenants are unaffected;
//!   the client should back off for `Retry-After` seconds and resubmit.
//! * [`ServeError::Backpressure`] — **503 Service Unavailable**: the
//!   *engine* cannot take more work right now (bounded submission queue
//!   at capacity, or the batch-priority reserve is exhausted). Every
//!   tenant sees this equally; `Retry-After` applies here too.
//!
//! Both are ordinary values routed out of the existing
//! [`TrySubmitError`](mogs_engine::TrySubmitError) path — an admission
//! failure is never a panic. Handlers return
//! `Result<Response, ServeError>` (the router's `match` will not compile
//! with any other arm type) and the router renders the error into its
//! response exactly once.

use mogs_engine::EngineError;
use mogs_vision::job::JobError;

use crate::http::Response;

/// Everything a request handler can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// The request could not be parsed: bad request line, missing or
    /// malformed headers, or a body that is not valid JSON for the
    /// endpoint. 400.
    BadRequest {
        /// What was wrong with the request.
        reason: String,
    },
    /// The declared `Content-Length` exceeds the server's body cap. The
    /// body is not read, so the connection closes after the response to
    /// keep framing sound. 413.
    PayloadTooLarge {
        /// The server's cap, bytes.
        limit: usize,
        /// The declared length, bytes.
        declared: usize,
    },
    /// No route, or no such job. 404.
    NotFound {
        /// The path or job that does not exist.
        what: String,
    },
    /// The route exists but not for this method. 405.
    MethodNotAllowed {
        /// The offending method.
        method: String,
    },
    /// The job spec names a tenant the registry does not know. 403.
    UnknownTenant {
        /// The unknown tenant id.
        tenant: String,
    },
    /// A per-tenant admission quota rejected the job (too many in-flight
    /// jobs, or a job bigger than the tenant's per-job site cap).
    /// Distinct from engine backpressure: only this tenant must back
    /// off. 429 with `Retry-After`.
    Quota {
        /// The tenant over quota.
        tenant: String,
        /// Which limit fired and the numbers behind it.
        reason: String,
        /// Seconds the client should wait before retrying.
        retry_after_s: u64,
    },
    /// The engine's bounded queue (or the batch-priority reserve) cannot
    /// take the job right now. Affects all tenants; retry after the
    /// hinted delay. 503 with `Retry-After`.
    Backpressure {
        /// Seconds the client should wait before retrying.
        retry_after_s: u64,
    },
    /// The request is valid but conflicts with the job's current state
    /// (e.g. fetching the result of a job that is still running, or
    /// cancelling one that already finished). 409.
    Conflict {
        /// Why the request cannot apply.
        reason: String,
    },
    /// The engine rejected the job spec at admission (schedule audit,
    /// label-space or labeling validation, invalid field). The request
    /// itself was at fault, so this is a 400, with the engine's stable
    /// error variant name in the body.
    Rejected {
        /// [`EngineError::variant`] of the admission failure.
        variant: &'static str,
        /// The engine's rendered error.
        message: String,
    },
    /// The job ran and failed inside the engine (worker panic past the
    /// retry budget, watchdog timeout, backend collapse). 500 with the
    /// engine's stable variant name.
    JobFailed {
        /// [`EngineError::variant`] of the terminal failure.
        variant: String,
        /// The engine's rendered error.
        message: String,
    },
    /// The server is shutting down. 503 without a retry hint.
    ShuttingDown,
}

impl ServeError {
    /// Maps an engine admission error onto the serve taxonomy:
    /// `ShutDown` becomes [`ServeError::ShuttingDown`], everything else
    /// is a client-side [`ServeError::Rejected`].
    pub fn from_admission(err: EngineError) -> Self {
        match err {
            EngineError::ShutDown => ServeError::ShuttingDown,
            other => ServeError::Rejected {
                variant: other.variant(),
                message: other.to_string(),
            },
        }
    }

    /// The HTTP status code this error renders as.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest { .. } | ServeError::Rejected { .. } => 400,
            ServeError::UnknownTenant { .. } => 403,
            ServeError::NotFound { .. } => 404,
            ServeError::MethodNotAllowed { .. } => 405,
            ServeError::Conflict { .. } => 409,
            ServeError::PayloadTooLarge { .. } => 413,
            ServeError::Quota { .. } => 429,
            ServeError::JobFailed { .. } => 500,
            ServeError::Backpressure { .. } | ServeError::ShuttingDown => 503,
        }
    }

    /// The `Retry-After` hint, for the variants that carry one.
    pub fn retry_after_s(&self) -> Option<u64> {
        match self {
            ServeError::Quota { retry_after_s, .. }
            | ServeError::Backpressure { retry_after_s } => Some(*retry_after_s),
            _ => None,
        }
    }

    /// Stable machine-readable error kind for the JSON body.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadRequest { .. } => "bad-request",
            ServeError::PayloadTooLarge { .. } => "payload-too-large",
            ServeError::NotFound { .. } => "not-found",
            ServeError::MethodNotAllowed { .. } => "method-not-allowed",
            ServeError::UnknownTenant { .. } => "unknown-tenant",
            ServeError::Quota { .. } => "quota",
            ServeError::Backpressure { .. } => "backpressure",
            ServeError::Conflict { .. } => "conflict",
            ServeError::Rejected { .. } => "rejected",
            ServeError::JobFailed { .. } => "job-failed",
            ServeError::ShuttingDown => "shutting-down",
        }
    }

    /// Renders the error as its HTTP response: status, optional
    /// `Retry-After`, and a JSON body
    /// `{"error": "<kind>", "message": "<detail>"}`.
    pub fn into_response(self) -> Response {
        let body = format!(
            "{{\"error\":{},\"message\":{}}}",
            crate::http::json_string(self.kind()),
            crate::http::json_string(&self.to_string()),
        );
        let mut response = Response::json(self.status(), body);
        if let Some(base) = self.retry_after_s() {
            response = response.header("Retry-After", &base.to_string());
        }
        // An oversized body was never read off the socket; the stream is
        // mid-payload and the connection must not be reused.
        if matches!(self, ServeError::PayloadTooLarge { .. }) {
            response = response.close();
        }
        response
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::PayloadTooLarge { limit, declared } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte cap")
            }
            ServeError::NotFound { what } => write!(f, "not found: {what}"),
            ServeError::MethodNotAllowed { method } => {
                write!(f, "method {method} not allowed here")
            }
            ServeError::UnknownTenant { tenant } => {
                write!(f, "tenant `{tenant}` is not registered")
            }
            ServeError::Quota { tenant, reason, .. } => {
                write!(f, "tenant `{tenant}` over quota: {reason}")
            }
            ServeError::Backpressure { retry_after_s } => {
                write!(f, "engine at capacity; retry after {retry_after_s}s")
            }
            ServeError::Conflict { reason } => write!(f, "conflict: {reason}"),
            ServeError::Rejected { message, .. } => write!(f, "admission rejected: {message}"),
            ServeError::JobFailed { message, .. } => write!(f, "job failed: {message}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A body that is no valid job description is the client's error.
impl From<JobError> for ServeError {
    fn from(err: JobError) -> Self {
        ServeError::BadRequest {
            reason: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_and_backpressure_are_distinct_statuses() {
        let quota = ServeError::Quota {
            tenant: "acme".to_string(),
            reason: "3 in-flight jobs at the cap of 3".to_string(),
            retry_after_s: 2,
        };
        let pressure = ServeError::Backpressure { retry_after_s: 1 };
        assert_eq!(quota.status(), 429);
        assert_eq!(pressure.status(), 503);
        assert_eq!(quota.retry_after_s(), Some(2));
        assert_eq!(pressure.retry_after_s(), Some(1));
    }

    #[test]
    fn admission_errors_map_to_client_side_rejections() {
        let err = ServeError::from_admission(EngineError::InvalidSpec {
            field: "iterations",
            reason: "must be at least 1".to_string(),
        });
        assert_eq!(err.status(), 400);
        let ServeError::Rejected { variant, .. } = err else {
            panic!("wrong variant");
        };
        assert_eq!(variant, "invalid-spec");
        assert_eq!(
            ServeError::from_admission(EngineError::ShutDown).status(),
            503
        );
    }

    #[test]
    fn responses_carry_retry_after_and_json_bodies() {
        let response = ServeError::Quota {
            tenant: "acme".to_string(),
            reason: "cap".to_string(),
            retry_after_s: 7,
        }
        .into_response();
        assert_eq!(response.status, 429);
        assert_eq!(response.header_value("Retry-After"), Some("7"));
        let body = String::from_utf8(response.body.clone()).expect("utf8 body");
        assert!(body.contains("\"error\":\"quota\""), "body: {body}");
    }

    #[test]
    fn oversized_payload_closes_the_connection() {
        let response = ServeError::PayloadTooLarge {
            limit: 10,
            declared: 11,
        }
        .into_response();
        assert_eq!(response.status, 413);
        assert!(response.close_connection, "unread body must close framing");
    }
}
